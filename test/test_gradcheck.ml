(* Float64 gradient checking with the memory planner enabled: symbolic
   gradients against central finite differences at rel err < 1e-4. The
   planner's in-place grants and eager drops are on the tested path —
   a kernel scribbling over a buffer the gradient graph still needs
   shows up here as a numeric mismatch. *)

open Octf_tensor
open Octf
module B = Builder
module G = Gradients

let scalar t = Tensor.flat_get_f t 0

let grad_check ?(tol = 1e-4) ?(lo = 0.2) ?(hi = 1.5) ~shape ~f () =
  let b = B.create () in
  let x = B.placeholder b ~shape Dtype.F64 in
  let y = B.reduce_sum b (f b x) in
  let gx =
    match G.gradients b ~ys:[ y ] ~xs:[ x ] () with
    | [ Some g ] -> G.densify b g
    | _ -> Alcotest.fail "no gradient"
  in
  let session =
    Session.create
      ~config:(Session.Config.v ~passes:[] ~memory_planning:true ())
      (B.graph b)
  in
  let rng = Rng.create 99 in
  let point = Tensor.uniform ~dtype:Dtype.F64 rng shape ~lo ~hi in
  let eval t =
    scalar (List.hd (Session.run ~feeds:[ (x, t) ] session [ y ]))
  in
  let sym = List.hd (Session.run ~feeds:[ (x, point) ] session [ gx ]) in
  (* Float64 sweet spot: truncation O(eps^2) = 1e-10, roundoff
     O(ulp/eps) ~ 1e-11 — both far under the 1e-4 budget. *)
  let eps = 1e-5 in
  for i = 0 to Tensor.numel point - 1 do
    let bump delta =
      let p = Tensor.copy point in
      Tensor.flat_set_f p i (Tensor.flat_get_f p i +. delta);
      p
    in
    let numeric = (eval (bump eps) -. eval (bump (-.eps))) /. (2.0 *. eps) in
    let symbolic = Tensor.flat_get_f sym i in
    if Float.abs (numeric -. symbolic) > tol *. (1.0 +. Float.abs numeric)
    then
      Alcotest.failf "element %d: numeric %.8f vs symbolic %.8f" i numeric
        symbolic
  done

let case name ?tol ?lo ?hi ~shape f =
  Alcotest.test_case name `Quick (fun () ->
      grad_check ?tol ?lo ?hi ~shape ~f ())

let suite =
  [
    (* A chain of aliasable elementwise ops: each link is the sole data
       consumer of its predecessor in the forward pass, so the planner
       hands out in-place grants wherever the gradient graph has not
       added a second reader. *)
    case "in-place elementwise chain" ~shape:[| 5 |]
      ~lo:(-1.0) ~hi:1.0
      (fun b x ->
        B.sigmoid b (B.tanh b (B.square b (B.neg b x))));
    case "in-place binary chain" ~shape:[| 4 |] (fun b x ->
        let half =
          B.const b (Tensor.full Dtype.F64 [||] 0.5)
        in
        let y = B.mul b x half in
        B.add b (B.relu b y) (B.square b y));
    (* AddN with broadcasting: the [3]-shaped x is expanded against the
       [2;3] operands, so its gradient is the column sum of dy — a
       plain pass-through of dy (the old behaviour) has the wrong shape
       and the wrong values. *)
    case "add_n with broadcasting" ~shape:[| 3 |] (fun b x ->
        let m =
          B.const b
            (Tensor.of_float_array ~dtype:Dtype.F64 [| 2; 3 |]
               [| 0.5; -1.0; 2.0; 1.5; 0.25; -0.75 |])
        in
        B.add_n b [ m; x; m ]);
    case "matmul" ~shape:[| 2; 3 |] (fun b x ->
        let w =
          B.const b
            (Tensor.of_float_array ~dtype:Dtype.F64 [| 3; 2 |]
               [| 1.0; -1.0; 0.5; 2.0; -0.3; 1.5 |])
        in
        B.square b (B.matmul b x w));
    case "conv2d" ~shape:[| 1; 4; 4; 2 |] (fun b x ->
        let filt =
          B.const b
            (Tensor.uniform ~dtype:Dtype.F64 (Rng.create 7) [| 3; 3; 2; 2 |]
               ~lo:(-0.5) ~hi:0.5)
        in
        B.conv2d b ~strides:(1, 1) ~padding:`Same x filt);
    case "softmax cross-entropy" ~shape:[| 3; 4 |] (fun b x ->
        let labels =
          B.const b
            (Tensor.of_float_array ~dtype:Dtype.F64 [| 3; 4 |]
               [|
                 0.7; 0.1; 0.1; 0.1;
                 0.25; 0.25; 0.25; 0.25;
                 0.0; 0.0; 1.0; 0.0;
               |])
        in
        let loss, _backprop =
          B.softmax_cross_entropy b ~logits:x ~labels ()
        in
        loss);
  ]
