(* Elementwise kernel fusion (Graph_optimizer.Fuse). The contract:
   fused execution is bit-identical to unfused, whole chains collapse
   into single FusedElementwise kernels visible in the step stats, and
   fetch/control/multi-consumer boundaries are respected.

   Every session here passes its pipeline (or the [fusion] knob)
   explicitly, so the suite behaves identically under the CI legs that
   set OCTF_FUSION. Graphs are rebuilt per session because optimizer
   passes rewrite the graph in place at compile time. *)

open Octf_tensor
open Octf
module B = Builder

let fused_passes = [ Graph_optimizer.Fuse; Graph_optimizer.Prune ]

let run_stats ?passes ?memory_planning ~feeds b fetches =
  let s =
    Session.create
      ~config:(Session.Config.v ?passes ?memory_planning ())
      (B.graph b)
  in
  let options = Session.Run_options.v ~feeds ~collect_stats:true () in
  let fetched, md = Session.run_with_metadata ~options s fetches in
  (fetched, Option.get md.Session.Run_metadata.step_stats)

let count_op stats op =
  List.length
    (List.filter (fun ns -> ns.Step_stats.op_type = op) stats.Step_stats.nodes)

let check_identical msg expected got =
  Alcotest.(check bool) msg true (List.for_all2 Tensor.equal expected got)

let feed_x () =
  Tensor.uniform (Rng.create 5) [| 64 |] ~lo:(-2.0) ~hi:2.0

(* neg -> mul(const) -> relu -> sigmoid -> tanh under a fetched
   ReduceSum: the whole 5-op chain is one group. *)
let build_chain () =
  let b = B.create () in
  let x = B.placeholder b Dtype.F32 in
  let y =
    B.reduce_sum b
      (B.tanh b
         (B.sigmoid b (B.relu b (B.mul b (B.neg b x) (B.const_f b 0.5)))))
  in
  (b, x, y)

let test_chain_collapses () =
  let feeds _b x = [ (x, feed_x ()) ] in
  let b1, x1, y1 = build_chain () in
  let expected, plain =
    run_stats ~passes:[] ~feeds:(feeds b1 x1) b1 [ y1 ]
  in
  let groups_before =
    Option.value ~default:0.0
      (Metrics.find_value Metrics.default "octf_fusion_groups_total")
  in
  let b2, x2, y2 = build_chain () in
  let got, fused = run_stats ~passes:fused_passes ~feeds:(feeds b2 x2) b2 [ y2 ] in
  check_identical "fused run bit-identical" expected got;
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise");
  List.iter
    (fun op ->
      Alcotest.(check int) (op ^ " absorbed") 0 (count_op fused op))
    [ "Neg"; "Mul"; "Relu"; "Sigmoid"; "Tanh" ];
  (* The unfused leg ran all five elementwise kernels. *)
  Alcotest.(check int) "unfused ran the chain" 5
    (count_op plain "Neg" + count_op plain "Mul" + count_op plain "Relu"
   + count_op plain "Sigmoid" + count_op plain "Tanh");
  (* Step stats report the group: one entry, five originals. *)
  (match Step_stats.fusion_groups fused with
  | [ (name, n, _) ] ->
      Alcotest.(check bool) "group name" true
        (String.length name > 0);
      Alcotest.(check int) "group size" 5 n
  | gs -> Alcotest.failf "expected one fusion group, got %d" (List.length gs));
  let groups_after =
    Option.value ~default:0.0
      (Metrics.find_value Metrics.default "octf_fusion_groups_total")
  in
  Alcotest.(check bool) "fusion group counter bumped" true
    (groups_after > groups_before)

(* Fused execution must agree with unfused whether the memory planner
   (and its in-place grants to the fused kernel) is on or off. *)
let test_planning_on_off () =
  let feeds _b x = [ (x, feed_x ()) ] in
  let b1, x1, y1 = build_chain () in
  let expected, _ = run_stats ~passes:[] ~feeds:(feeds b1 x1) b1 [ y1 ] in
  List.iter
    (fun planning ->
      let b2, x2, y2 = build_chain () in
      let got, _ =
        run_stats ~passes:fused_passes ~memory_planning:planning
          ~feeds:(feeds b2 x2) b2 [ y2 ]
      in
      check_identical
        (Printf.sprintf "planning=%b bit-identical" planning)
        expected got)
    [ false; true ]

(* AddN joins a group as the left fold of binary Adds its kernel
   computes, with broadcasting ([3] row against [2;3]) in the fold. *)
let test_addn_broadcast_group () =
  let build () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let r =
      B.const b (Tensor.of_float_array [| 3 |] [| 0.5; -1.5; 2.0 |])
    in
    let y = B.reduce_sum b (B.relu b (B.add_n b [ x; r; x ])) in
    (b, x, y)
  in
  let xt =
    Tensor.of_float_array [| 2; 3 |] [| 1.0; -2.0; 3.0; -4.0; 5.0; -6.0 |]
  in
  let b1, x1, y1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:[ (x1, xt) ] b1 [ y1 ] in
  let b2, x2, y2 = build () in
  let got, fused = run_stats ~passes:fused_passes ~feeds:[ (x2, xt) ] b2 [ y2 ] in
  check_identical "broadcasting AddN group bit-identical" expected got;
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise");
  Alcotest.(check int) "AddN absorbed" 0 (count_op fused "AddN");
  Alcotest.(check int) "Relu absorbed" 0 (count_op fused "Relu")

(* Integer dtype: binary results truncate through int between ops
   (I32 division included); fused and unfused must agree bit-for-bit,
   including the buffer representation Tensor.equal compares. *)
let test_int_chain () =
  let build () =
    let b = B.create () in
    let x =
      B.const b (Tensor.of_int_array [| 6 |] [| -7; -3; 0; 1; 5; 9 |])
    in
    let c1 = B.const b (Tensor.scalar_i 2) in
    let c2 = B.const b (Tensor.scalar_i 2) in
    let c3 = B.const b (Tensor.scalar_i 3) in
    let y =
      B.cast b (B.mul b (B.div b (B.add b x c1) c2) c3) Dtype.F32
    in
    (b, y)
  in
  let b1, y1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:[] b1 [ y1 ] in
  let b2, y2 = build () in
  let got, fused = run_stats ~passes:fused_passes ~feeds:[] b2 [ y2 ] in
  check_identical "int chain bit-identical" expected got;
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise")

(* Unary ops on an integer dtype follow the binary rule: each result
   truncates through int_of_float, unfused and fused alike. *)
let test_int_unary_chain () =
  let xs = [| -7; -3; 0; 1; 5; 9 |] in
  let x () = Tensor.of_int_array [| 6 |] xs in
  Alcotest.(check (array int))
    "Neg" (Array.map (fun v -> -v) xs)
    (Tensor.int_buffer (Tensor_ops.neg (x ())));
  Alcotest.(check (array int))
    "Abs" (Array.map abs xs)
    (Tensor.int_buffer (Tensor_ops.abs (x ())));
  Alcotest.(check (array int))
    "Square" (Array.map (fun v -> v * v) xs)
    (Tensor.int_buffer (Tensor_ops.square (x ())));
  let build () =
    let b = B.create () in
    let c = B.const b (x ()) in
    let half = B.const b (Tensor.scalar_i 2) in
    let y = B.square b (B.div b (B.abs b (B.neg b c)) half) in
    (b, B.identity b y)
  in
  let b1, y1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:[] b1 [ y1 ] in
  let b2, y2 = build () in
  let got, fused = run_stats ~passes:fused_passes ~feeds:[] b2 [ y2 ] in
  check_identical "int unary chain bit-identical" expected got;
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise");
  Alcotest.(check (array int))
    "values" [| 9; 1; 0; 0; 4; 16 |]
    (Tensor.int_buffer (List.hd got))

(* ReluGrad (dy, x) passes dy where x > 0. Its fused form once tested
   the wrong operand: fused ReluGrad(Neg dy, x) gave [0 6 0 -8]. *)
let test_relu_grad_operand_order () =
  let build () =
    let b = B.create () in
    let dy = B.placeholder b Dtype.F32 and x = B.placeholder b Dtype.F32 in
    (b, dy, x, B.identity b (B.relu_grad b (B.neg b dy) x))
  in
  let feeds dy x =
    [
      (dy, Tensor.of_float_array [| 4 |] [| 1.; -2.; 3.; -4. |]);
      (x, Tensor.of_float_array [| 4 |] [| 5.; 6.; -7.; -8. |]);
    ]
  in
  let b1, dy1, x1, y1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:(feeds dy1 x1) b1 [ y1 ] in
  Alcotest.(check (array (float 0.0)))
    "unfused values" [| -1.; 2.; 0.; 0. |]
    (Tensor.float_buffer (List.hd expected));
  let b2, dy2, x2, y2 = build () in
  let got, fused =
    run_stats ~passes:fused_passes ~feeds:(feeds dy2 x2) b2 [ y2 ]
  in
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise");
  check_identical "fused ReluGrad bit-identical" expected got

(* The engine against a naive per-element reference written here: a
   random op over two operands that broadcast to a random output shape
   (scalars, trailing rows, middle axes, size-1 dimensions), optionally
   followed by a unary op, optionally written in place into either
   full-size operand's buffer. One dimension may be large, so chunk and
   shard boundaries are crossed. *)
let reference_binary = function
  | "Add" -> ( +. )
  | "Sub" -> ( -. )
  | "Mul" -> ( *. )
  | "Div" -> ( /. )
  | "Pow" -> ( ** )
  | "Mod" ->
      fun a b ->
        let r = Float.rem a b in
        if r <> 0.0 && r < 0.0 <> (b < 0.0) then r +. b else r
  | "Maximum" -> Float.max
  | "Minimum" -> Float.min
  | "ReluGrad" -> fun g v -> if v > 0.0 then g else 0.0
  | op -> Alcotest.failf "no reference for %s" op

let reference_unary = function
  | "Neg" -> Float.neg
  | "Abs" -> Float.abs
  | "Sign" -> fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0
  | "Exp" -> Float.exp
  | "Log" -> Float.log
  | "Sqrt" -> Float.sqrt
  | "Square" -> fun x -> x *. x
  | "Reciprocal" -> fun x -> 1.0 /. x
  | "Relu" -> Float.max 0.0
  | "Sigmoid" -> fun x -> 1.0 /. (1.0 +. Float.exp (-.x))
  | "Tanh" -> Float.tanh
  | op -> Alcotest.failf "no reference for %s" op

type engine_case = {
  shape_a : int array;
  shape_b : int array;
  op : string;
  after : string option;
  in_place : int option;  (* operand whose buffer is granted as ?out *)
  seed : int;
}

(* Each operand keeps or collapses every dimension of a template shape
   and may drop a prefix of them (all of them makes a scalar), so the
   two always broadcast. *)
let gen_case =
  let open QCheck.Gen in
  let* rank = int_range 0 4 in
  let* big = int_range (-1) (rank - 1) in
  let* dims = array_repeat rank (int_range 1 4) in
  let template =
    Array.mapi (fun i d -> if i = big then 300 + (37 * d) else d) dims
  in
  let operand =
    let* drop = int_range 0 rank in
    let* keep = array_repeat rank bool in
    return
      (Array.sub
         (Array.mapi (fun i d -> if keep.(i) then d else 1) template)
         drop (rank - drop))
  in
  let* shape_a = operand and* shape_b = operand in
  let* op = oneofl Fused_eval.binary_op_names in
  let* after = opt (oneofl Fused_eval.unary_op_names) in
  let* in_place = oneofl [ None; Some 0; Some 1 ] in
  let* seed = int_bound 10_000 in
  return { shape_a; shape_b; op; after; in_place; seed }

let print_case c =
  Printf.sprintf "%s %s %s%s in_place=%s seed=%d" c.op
    (Shape.to_string c.shape_a) (Shape.to_string c.shape_b)
    (match c.after with Some u -> " then " ^ u | None -> "")
    (match c.in_place with Some k -> string_of_int k | None -> "no")
    c.seed

let prop_engine_reference =
  QCheck.Test.make ~name:"engine matches a naive broadcast reference"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let rng = Rng.create c.seed in
      let a = Tensor.uniform rng c.shape_a ~lo:(-2.0) ~hi:2.0 in
      let b = Tensor.uniform rng c.shape_b ~lo:(-2.0) ~hi:2.0 in
      let out_shape = Shape.broadcast c.shape_a c.shape_b in
      (* Reference, before an in-place run can overwrite an operand. *)
      let src t i =
        let s = Tensor.shape t in
        let r = Array.length s and ro = Array.length out_shape in
        let idx = Shape.multi_index out_shape i in
        Tensor.get_f t
          (Array.init r (fun d -> if s.(d) = 1 then 0 else idx.(d + ro - r)))
      in
      let f = reference_binary c.op in
      let g =
        match c.after with Some u -> reference_unary u | None -> Fun.id
      in
      let expected =
        Array.init (Shape.numel out_shape) (fun i -> g (f (src a i) (src b i)))
      in
      let out =
        match c.in_place with
        | Some 0 when Shape.equal (Tensor.shape a) out_shape ->
            Some (Tensor.float_buffer a)
        | Some 1 when Shape.equal (Tensor.shape b) out_shape ->
            Some (Tensor.float_buffer b)
        | _ -> None
      in
      let got =
        match c.after with
        | None -> Fused_eval.binary c.op ?out a b
        | Some u ->
            Fused_eval.eval ?out
              Fused_eval.(Unary (u, Binary (c.op, Input 0, Input 1)))
              [| a; b |]
      in
      let bits x = Int64.bits_of_float x in
      Shape.equal (Tensor.shape got) out_shape
      && Array.for_all2
           (fun e v -> Int64.equal (bits e) (bits v))
           expected (Tensor.float_buffer got)
      && match out with Some o -> Tensor.float_buffer got == o | None -> true)

(* A producer with two consumers is never recomputed per consumer: it
   stays out of its consumers' groups and roots its own. *)
let test_multi_consumer_boundary () =
  let build () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let u = B.neg b (B.square b x) in
    let s1 = B.reduce_sum b (B.relu b u) in
    let s2 = B.reduce_sum b (B.exp b u) in
    (b, x, s1, s2)
  in
  let feeds x = [ (x, feed_x ()) ] in
  let b1, x1, a1, a2 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:(feeds x1) b1 [ a1; a2 ] in
  let b2, x2, c1, c2 = build () in
  let got, fused =
    run_stats ~passes:fused_passes ~feeds:(feeds x2) b2 [ c1; c2 ]
  in
  check_identical "diamond bit-identical" expected got;
  (* Only {neg, square} fuse; relu and exp each read the shared value. *)
  Alcotest.(check int) "one fused kernel" 1 (count_op fused "FusedElementwise");
  Alcotest.(check int) "Relu kept" 1 (count_op fused "Relu");
  Alcotest.(check int) "Exp kept" 1 (count_op fused "Exp");
  match Step_stats.fusion_groups fused with
  | [ (_, n, _) ] -> Alcotest.(check int) "group size" 2 n
  | gs -> Alcotest.failf "expected one fusion group, got %d" (List.length gs)

(* Control edges anchor to real nodes: a node with control inputs never
   fuses, and neither does a producer some other node control-depends
   on. *)
let test_control_dependency_boundary () =
  let build () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let p = B.sigmoid b x in
    let q = B.reduce_sum b (B.tanh b p) in
    (* r runs strictly after p, and carries the control edge itself. *)
    let r =
      B.with_control_dependencies b [ p ] (fun () ->
          B.reduce_sum b (B.square b x))
    in
    (b, x, q, r)
  in
  let feeds x = [ (x, feed_x ()) ] in
  let b1, x1, q1, r1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:(feeds x1) b1 [ q1; r1 ] in
  let b2, x2, q2, r2 = build () in
  let got, fused =
    run_stats ~passes:fused_passes ~feeds:(feeds x2) b2 [ q2; r2 ]
  in
  check_identical "control graph bit-identical" expected got;
  (* tanh cannot absorb the control-depended-on sigmoid; the square
     carries a control input and cannot fuse either. *)
  Alcotest.(check int) "no fusion across control edges" 0
    (count_op fused "FusedElementwise");
  Alcotest.(check int) "Sigmoid kept" 1 (count_op fused "Sigmoid")

(* A fetched node must still materialize: it never joins a group, even
   mid-chain. *)
let test_fetched_interior_kept () =
  let build () =
    let b = B.create () in
    let x = B.placeholder b Dtype.F32 in
    let mid = B.relu b (B.neg b x) in
    let top = B.reduce_sum b (B.exp b mid) in
    (b, x, mid, top)
  in
  let feeds x = [ (x, feed_x ()) ] in
  let b1, x1, m1, t1 = build () in
  let expected, _ = run_stats ~passes:[] ~feeds:(feeds x1) b1 [ m1; t1 ] in
  let b2, x2, m2, t2 = build () in
  let got, fused =
    run_stats ~passes:fused_passes ~feeds:(feeds x2) b2 [ m2; t2 ]
  in
  check_identical "fetched-interior bit-identical" expected got;
  (* relu is fetched, so exp cannot absorb it; relu itself is pinned and
     cannot root a group over neg. *)
  Alcotest.(check int) "fetched relu kept" 1 (count_op fused "Relu")

(* The Session [fusion] knob selects between the pipelines; results are
   bit-identical either way. *)
let test_session_knob () =
  let feeds _b x = [ (x, feed_x ()) ] in
  let run fusion =
    let b, x, y = build_chain () in
    let s = Session.create ~config:(Session.Config.v ~fusion ()) (B.graph b) in
    let options =
      Session.Run_options.v ~feeds:(feeds b x) ~collect_stats:true ()
    in
    let fetched, md = Session.run_with_metadata ~options s [ y ] in
    (fetched, Option.get md.Session.Run_metadata.step_stats)
  in
  let off, off_stats = run false in
  let on, on_stats = run true in
  check_identical "knob legs bit-identical" off on;
  Alcotest.(check int) "fusion off: no fused kernels" 0
    (count_op off_stats "FusedElementwise");
  Alcotest.(check bool) "fusion on: fused kernel present" true
    (count_op on_stats "FusedElementwise" >= 1)

let suite =
  [
    Alcotest.test_case "chain collapses to one kernel" `Quick
      test_chain_collapses;
    Alcotest.test_case "planning on/off bit-identical" `Quick
      test_planning_on_off;
    Alcotest.test_case "AddN with broadcasting fuses" `Quick
      test_addn_broadcast_group;
    Alcotest.test_case "int dtype chain bit-identical" `Quick test_int_chain;
    Alcotest.test_case "multi-consumer producer boundary" `Quick
      test_multi_consumer_boundary;
    Alcotest.test_case "control dependency boundary" `Quick
      test_control_dependency_boundary;
    Alcotest.test_case "fetched interior stays materialized" `Quick
      test_fetched_interior_kept;
    Alcotest.test_case "session fusion knob" `Quick test_session_knob;
    Alcotest.test_case "int dtype unary chain bit-identical" `Quick
      test_int_unary_chain;
    Alcotest.test_case "ReluGrad operand order fused = unfused" `Quick
      test_relu_grad_operand_order;
    QCheck_alcotest.to_alcotest prop_engine_reference;
  ]
