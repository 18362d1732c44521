(* Automatic differentiation (§4.1) checked against central finite
   differences on randomized inputs, for every differentiable op family. *)

open Octf_tensor
open Octf
module B = Builder
module G = Gradients

let scalar t = Tensor.flat_get_f t 0

(* Build a graph [f] of one placeholder, take d(sum f)/dx symbolically,
   and compare with finite differences at a random point. *)
let grad_check ?(tol = 1e-3) ~shape ~f () =
  let b = B.create () in
  let x = B.placeholder b ~shape Dtype.F32 in
  let y = B.reduce_sum b (f b x) in
  let grads = G.gradients b ~ys:[ y ] ~xs:[ x ] () in
  let gx =
    match grads with
    | [ Some g ] -> G.densify b g
    | _ -> Alcotest.fail "no gradient"
  in
  let session =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let rng = Rng.create 77 in
  let point = Tensor.uniform rng shape ~lo:0.2 ~hi:1.5 in
  let eval t =
    scalar (List.hd (Session.run ~feeds:[ (x, t) ] session [ y ]))
  in
  let sym =
    List.hd (Session.run ~feeds:[ (x, point) ] session [ gx ])
  in
  let eps = 1e-4 in
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
      Alcotest.failf "element %d: numeric %.6f vs symbolic %.6f" i numeric
        symbolic
  done

let case name ?tol ~shape f =
  Alcotest.test_case name `Quick (fun () -> grad_check ?tol ~shape ~f ())

let unary_cases =
  [
    case "neg" ~shape:[| 3 |] (fun b x -> B.neg b x);
    case "exp" ~shape:[| 3 |] (fun b x -> B.exp b x);
    case "log" ~shape:[| 3 |] (fun b x -> B.log b x);
    case "sqrt" ~shape:[| 3 |] (fun b x -> B.sqrt b x);
    case "square" ~shape:[| 3 |] (fun b x -> B.square b x);
    case "reciprocal" ~shape:[| 3 |] (fun b x -> B.reciprocal b x);
    case "abs" ~shape:[| 3 |] (fun b x -> B.abs b x);
    case "relu" ~shape:[| 4 |] (fun b x -> B.relu b x);
    case "sigmoid" ~shape:[| 3 |] (fun b x -> B.sigmoid b x);
    case "tanh" ~shape:[| 3 |] (fun b x -> B.tanh b x);
    case "identity" ~shape:[| 3 |] (fun b x -> B.identity b x);
  ]

let binary_cases =
  [
    case "add broadcast" ~shape:[| 2; 3 |] (fun b x ->
        B.add b x (B.const b (Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |])));
    case "sub" ~shape:[| 3 |] (fun b x -> B.sub b (B.const_f b 2.0) x);
    case "mul self" ~shape:[| 3 |] (fun b x -> B.mul b x x);
    case "div" ~shape:[| 3 |] (fun b x -> B.div b (B.const_f b 1.0) x);
    case "pow" ~tol:5e-3 ~shape:[| 3 |] (fun b x ->
        B.pow b x (B.const_f b 3.0));
    case "maximum vs const" ~shape:[| 4 |] (fun b x ->
        B.maximum b x (B.const_f b 0.7));
    case "minimum vs const" ~shape:[| 4 |] (fun b x ->
        B.minimum b x (B.const_f b 0.7));
    case "select" ~shape:[| 4 |] (fun b x ->
        let cond =
          B.const b (Tensor.of_bool_array [| 4 |] [| true; false; true; false |])
        in
        B.select b cond (B.mul b x (B.const_f b 2.0)) (B.neg b x));
  ]

let matmul_cases =
  [
    case "matmul left" ~shape:[| 2; 3 |] (fun b x ->
        let w =
          B.const b
            (Tensor.of_float_array [| 3; 2 |] [| 1.; -1.; 0.5; 2.; -0.3; 1.5 |])
        in
        B.matmul b x w);
    case "matmul transpose_b" ~shape:[| 2; 3 |] (fun b x ->
        let w =
          B.const b
            (Tensor.of_float_array [| 4; 3 |]
               (Array.init 12 (fun i -> 0.1 *. float_of_int i)))
        in
        B.matmul b x w ~transpose_b:true);
    case "matmul right transpose_a" ~shape:[| 3; 2 |] (fun b x ->
        let w =
          B.const b
            (Tensor.of_float_array [| 3; 4 |]
               (Array.init 12 (fun i -> 0.1 *. float_of_int i)))
        in
        B.matmul b x w ~transpose_a:true);
  ]

let array_cases =
  [
    case "reshape" ~shape:[| 2; 3 |] (fun b x ->
        B.square b (B.reshape b x [| 6 |]));
    case "expand_dims" ~shape:[| 3 |] (fun b x ->
        B.square b (B.expand_dims b x ~axis:1));
    case "transpose" ~shape:[| 2; 3 |] (fun b x ->
        B.square b (B.transpose b x));
    case "concat" ~shape:[| 2; 2 |] (fun b x ->
        B.square b (B.concat b ~axis:1 [ x; B.mul b x (B.const_f b 2.0) ]));
    case "slice" ~shape:[| 3; 3 |] (fun b x ->
        B.square b (B.slice b x ~begin_:[| 1; 0 |] ~size:[| 2; 2 |]));
    case "pad" ~shape:[| 2; 2 |] (fun b x ->
        B.square b (B.pad b x ~paddings:[| (1, 0); (0, 1) |]));
    case "tile" ~shape:[| 2; 2 |] (fun b x ->
        B.square b (B.tile b x ~multiples:[| 2; 1 |]));
    case "reduce_sum axis" ~shape:[| 2; 3 |] (fun b x ->
        B.square b (B.reduce_sum b ~axes:[ 1 ] x));
    case "reduce_mean" ~shape:[| 2; 3 |] (fun b x ->
        B.square b (B.reduce_mean b ~axes:[ 0 ] ~keep_dims:true x));
  ]

let nn_cases =
  [
    case "softmax" ~shape:[| 2; 4 |] (fun b x -> B.softmax b x);
    case "log_softmax" ~shape:[| 2; 4 |] (fun b x -> B.log_softmax b x);
    case "softmax cross entropy" ~shape:[| 2; 3 |] (fun b x ->
        let labels =
          B.const b
            (Tensor.of_float_array [| 2; 3 |] [| 1.; 0.; 0.; 0.; 0.5; 0.5 |])
        in
        let loss, _ = B.softmax_cross_entropy b ~logits:x ~labels () in
        loss);
    case "conv2d" ~tol:5e-3 ~shape:[| 1; 3; 3; 1 |] (fun b x ->
        let filter =
          B.const b
            (Tensor.of_float_array [| 2; 2; 1; 1 |] [| 1.; -0.5; 0.25; 2.0 |])
        in
        B.conv2d b ~strides:(1, 1) ~padding:`Same x filter);
    case "conv2d filter grad" ~tol:5e-3 ~shape:[| 2; 2; 1; 1 |] (fun b x ->
        let input =
          B.const b
            (Tensor.of_float_array [| 1; 3; 3; 1 |]
               (Array.init 9 (fun i -> 0.3 *. float_of_int i)))
        in
        B.conv2d b ~strides:(1, 1) ~padding:`Valid input x);
    case "avg_pool" ~shape:[| 1; 4; 4; 1 |] (fun b x ->
        B.avg_pool b ~ksize:(2, 2) ~strides:(2, 2) ~padding:`Valid x);
    case "max_pool" ~shape:[| 1; 4; 4; 1 |] (fun b x ->
        B.max_pool b ~ksize:(2, 2) ~strides:(2, 2) ~padding:`Valid x);
  ]

let test_gather_sparse_gradient () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 4; 2 |] Dtype.F32 in
  let idx = B.const b (Tensor.of_int_array [| 3 |] [| 1; 3; 1 |]) in
  let y = B.reduce_sum b (B.gather b x idx) in
  let grads = G.gradients b ~ys:[ y ] ~xs:[ x ] () in
  match grads with
  | [ Some (G.Sparse { indices; values; dense_shape }) ] ->
      let session =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let point = Tensor.ones Dtype.F32 [| 4; 2 |] in
      let vs =
        Session.run ~feeds:[ (x, point) ] session [ indices; values ]
      in
      (match vs with
      | [ i; v ] ->
          Alcotest.(check (array int)) "indices pass through" [| 1; 3; 1 |]
            (Tensor.to_int_array i);
          Alcotest.(check bool) "values are ones" true
            (Tensor.approx_equal v (Tensor.ones Dtype.F32 [| 3; 2 |]))
      | _ -> Alcotest.fail "arity");
      (* Densified: row 1 hit twice. *)
      let dense = G.densify b (G.Sparse { indices; values; dense_shape }) in
      let d = List.hd (Session.run ~feeds:[ (x, point) ] session [ dense ]) in
      Alcotest.(check (float 0.)) "row 1 accumulated" 2.0
        (Tensor.get_f d [| 1; 0 |]);
      Alcotest.(check (float 0.)) "row 0 untouched" 0.0
        (Tensor.get_f d [| 0; 0 |])
  | _ -> Alcotest.fail "expected sparse gradient"

let test_stop_gradient () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.mul b x (B.stop_gradient b x) in
  let grads = G.gradients b ~ys:[ y ] ~xs:[ x ] () in
  match grads with
  | [ Some (G.Dense g) ] ->
      let session =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let v =
        List.hd
          (Session.run ~feeds:[ (x, Tensor.scalar_f 3.0) ] session [ g ])
      in
      (* d/dx (x * sg(x)) = sg(x) = 3, not 2x = 6. *)
      Alcotest.(check (float 1e-6)) "one path only" 3.0 (scalar v)
  | _ -> Alcotest.fail "no gradient"

let test_no_path_returns_none () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.const_f b 5.0 in
  match G.gradients b ~ys:[ y ] ~xs:[ x ] () with
  | [ None ] -> ()
  | _ -> Alcotest.fail "expected None"

let test_multi_path_sums () =
  (* y = x*x + 3x: dy/dx = 2x + 3. *)
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.add b (B.mul b x x) (B.mul b x (B.const_f b 3.0)) in
  match G.gradients b ~ys:[ y ] ~xs:[ x ] () with
  | [ Some (G.Dense g) ] ->
      let session =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let v =
        List.hd
          (Session.run ~feeds:[ (x, Tensor.scalar_f 4.0) ] session [ g ])
      in
      Alcotest.(check (float 1e-6)) "2x+3" 11.0 (scalar v)
  | _ -> Alcotest.fail "no gradient"

let test_grad_ys_seed () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.mul b x (B.const_f b 2.0) in
  let seed = B.const_f b 10.0 in
  match G.gradients b ~ys:[ y ] ~xs:[ x ] ~grad_ys:[ seed ] () with
  | [ Some (G.Dense g) ] ->
      let session =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let v =
        List.hd
          (Session.run ~feeds:[ (x, Tensor.scalar_f 0.0) ] session [ g ])
      in
      Alcotest.(check (float 1e-6)) "seeded" 20.0 (scalar v)
  | _ -> Alcotest.fail "no gradient"

let test_custom_gradient_registration () =
  (* Users can override gradients (the §4.1 extensibility story). *)
  G.register_gradient ~op_type:"Sign" (fun b n _dys ->
      ignore n;
      [ Some (G.Dense (B.const_f b 42.0)) ]);
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y = B.sign b x in
  match G.gradients b ~ys:[ y ] ~xs:[ x ] () with
  | [ Some (G.Dense g) ] ->
      let session =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let v =
        List.hd
          (Session.run ~feeds:[ (x, Tensor.scalar_f 1.0) ] session [ g ])
      in
      Alcotest.(check (float 0.)) "custom grad" 42.0 (scalar v)
  | _ -> Alcotest.fail "no gradient"

let test_dynamic_partition_stitch_grad () =
  grad_check ~shape:[| 4 |]
    ~f:(fun b x ->
      let parts = B.const b (Tensor.of_int_array [| 4 |] [| 0; 1; 0; 1 |]) in
      let pieces = B.dynamic_partition b x parts ~num:2 in
      let doubled =
        List.map (fun p -> B.mul b p (B.const_f b 2.0)) pieces
      in
      let positions = B.range_like b x in
      let pos = B.dynamic_partition b positions parts ~num:2 in
      B.square b (B.dynamic_stitch b pos doubled))
    ()

let suite =
  unary_cases @ binary_cases @ matmul_cases @ array_cases @ nn_cases
  @ [
      Alcotest.test_case "gather sparse gradient" `Quick
        test_gather_sparse_gradient;
      Alcotest.test_case "stop_gradient" `Quick test_stop_gradient;
      Alcotest.test_case "no path -> None" `Quick test_no_path_returns_none;
      Alcotest.test_case "multi path sums" `Quick test_multi_path_sums;
      Alcotest.test_case "grad_ys seed" `Quick test_grad_ys_seed;
      Alcotest.test_case "custom gradient" `Quick
        test_custom_gradient_registration;
      Alcotest.test_case "partition/stitch grad" `Quick
        test_dynamic_partition_stitch_grad;
    ]

let test_cond_gradient () =
  (* y = if p then x^2 else -x; dy/dx = 2x or -1 (§4.1 conditional
     differentiation). *)
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let p = B.placeholder b Dtype.Bool in
  let outs =
    B.cond b p ~inputs:[ x ]
      ~then_:(fun b ins -> [ B.square b (List.hd ins) ])
      ~else_:(fun b ins -> [ B.neg b (List.hd ins) ])
  in
  let y = List.hd outs in
  match G.gradients b ~ys:[ y ] ~xs:[ x ] () with
  | [ Some (G.Dense g) ] ->
      let s =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let dydx xv pv =
        scalar
          (List.hd
             (Session.run
                ~feeds:[ (x, Tensor.scalar_f xv); (p, Tensor.scalar_b pv) ]
                s [ g ]))
      in
      Alcotest.(check (float 1e-6)) "then branch: 2x" 6.0 (dydx 3.0 true);
      Alcotest.(check (float 1e-6)) "else branch: -1" (-1.0) (dydx 3.0 false)
  | _ -> Alcotest.fail "no cond gradient"

let test_cond_gradient_both_branches_use_x () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let p = B.placeholder b Dtype.Bool in
  let outs =
    B.cond b p ~inputs:[ x ]
      ~then_:(fun b ins -> [ B.exp b (List.hd ins) ])
      ~else_:(fun b ins -> [ B.mul b (List.hd ins) (List.hd ins) ])
  in
  let loss = B.mul b (List.hd outs) (B.const_f b 2.0) in
  match G.gradients b ~ys:[ loss ] ~xs:[ x ] () with
  | [ Some (G.Dense g) ] ->
      let s =
        Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
      in
      let dydx xv pv =
        scalar
          (List.hd
             (Session.run
                ~feeds:[ (x, Tensor.scalar_f xv); (p, Tensor.scalar_b pv) ]
                s [ g ]))
      in
      Alcotest.(check (float 1e-5)) "then: 2e^x" (2.0 *. Stdlib.exp 1.0)
        (dydx 1.0 true);
      Alcotest.(check (float 1e-5)) "else: 4x" 4.0 (dydx 1.0 false)
  | _ -> Alcotest.fail "no cond gradient"

let suite =
  suite
  @ [
      Alcotest.test_case "cond gradient" `Quick test_cond_gradient;
      Alcotest.test_case "cond gradient both branches" `Quick
        test_cond_gradient_both_branches_use_x;
    ]

let pack_split_cases =
  [
    case "pack" ~shape:[| 3 |] (fun b x ->
        B.square b (B.pack b [ x; B.mul b x (B.const_f b 2.0) ]));
    case "unpack" ~shape:[| 2; 3 |] (fun b x ->
        match B.unpack b x ~num:2 with
        | [ a; c ] -> B.add b (B.square b a) c
        | _ -> assert false);
    case "split" ~shape:[| 2; 4 |] (fun b x ->
        match B.split b x ~axis:1 ~num:2 with
        | [ a; c ] -> B.add b (B.square b a) (B.exp b c)
        | _ -> assert false);
  ]

let test_pack_unpack_roundtrip () =
  let b = B.create () in
  let x = B.const b (Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |]) in
  let rows = B.unpack b x ~num:2 in
  let repacked = B.pack b rows in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ repacked ] with
  | [ v ] ->
      Alcotest.(check bool) "roundtrip" true
        (Tensor.approx_equal v
           (Tensor.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |]))
  | _ -> Alcotest.fail "arity"

let suite =
  suite @ pack_split_cases
  @ [ Alcotest.test_case "pack/unpack roundtrip" `Quick
        test_pack_unpack_roundtrip ]
