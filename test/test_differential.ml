(* Differential harness for the memory planner and the fusion pass:
   seeded random DAGs must fetch bit-identical tensors with planning on
   or off and with elementwise fusion on or off, under both schedulers
   and two intra-op thread budgets. Any divergence means the planner
   dropped or aliased a buffer somebody still read, or a fused kernel
   computed something its unfused originals would not; the failing
   graph is shrunk to its shortest failing prefix and printed. *)

open Octf_tensor
open Octf
module B = Builder

(* A generated graph is a straight-line program; instruction [i] may
   only reference earlier instructions, so every prefix is itself a
   valid program — which is what makes shrinking trivial. *)
type instr =
  | Leaf of int array  (* const with rng-drawn values *)
  | Fed of int array  (* placeholder, fed with an rng-drawn tensor *)
  | Unary of string * int
  | Binary of string * int * int
  | Matmul of int * int
  | Reduce of string * int  (* all-axes reduce to a scalar *)
  | Add_n of int list
  | Concat0 of int * int  (* same shape, rank >= 1, along axis 0 *)
  | Transpose2 of int  (* rank-2 transpose *)
  | Choose of int * int  (* select (a > b) a b: bool intermediate *)

let shape_to_string s =
  "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int s)) ^ "]"

let instr_to_string i = function
  | Leaf s -> Printf.sprintf "%%%d = const %s" i (shape_to_string s)
  | Fed s -> Printf.sprintf "%%%d = placeholder %s (fed)" i (shape_to_string s)
  | Unary (op, a) -> Printf.sprintf "%%%d = %s %%%d" i op a
  | Binary (op, a, b) -> Printf.sprintf "%%%d = %s %%%d %%%d" i op a b
  | Matmul (a, b) -> Printf.sprintf "%%%d = matmul %%%d %%%d" i a b
  | Reduce (op, a) -> Printf.sprintf "%%%d = %s %%%d" i op a
  | Add_n srcs ->
      Printf.sprintf "%%%d = add_n [%s]" i
        (String.concat " " (List.map (Printf.sprintf "%%%d") srcs))
  | Concat0 (a, b) -> Printf.sprintf "%%%d = concat0 %%%d %%%d" i a b
  | Transpose2 a -> Printf.sprintf "%%%d = transpose %%%d" i a
  | Choose (a, b) ->
      Printf.sprintf "%%%d = select (%%%d > %%%d) %%%d %%%d" i a b a b

let unary_ops =
  [| "Neg"; "Abs"; "Square"; "Relu"; "Sigmoid"; "Tanh"; "Identity";
     "StopGradient" |]

let binary_ops = [| "Add"; "Sub"; "Mul"; "Maximum"; "Minimum" |]

(* The rest of the elementwise engine's fusable ops, for the leg that
   covers every one of them. [apply_unary]/[apply_binary] keep each in
   its domain, so values stay real and finite. *)
let all_unary_ops =
  Array.append unary_ops [| "Sign"; "Exp"; "Log"; "Sqrt"; "Reciprocal" |]

let all_binary_ops =
  Array.append binary_ops [| "Div"; "Pow"; "Mod"; "ReluGrad" |]

(* Output shape of each instruction, used to pick compatible operands.
   Binary/Add_n operands are either same-shaped or scalar, so the
   broadcast result is the highest-rank operand's shape. All values
   stay NaN-free: leaves are in [-1, 1] and every op either stays in
   the reals or is applied inside its domain (see [apply_unary]), so
   bitwise comparison of fetches is meaningful. *)
let shape_of shapes = function
  | Leaf s | Fed s -> s
  | Unary (_, a) -> shapes.(a)
  | Binary (_, a, b) | Choose (a, b) ->
      if Array.length shapes.(a) >= Array.length shapes.(b) then shapes.(a)
      else shapes.(b)
  | Matmul (a, b) -> [| shapes.(a).(0); shapes.(b).(1) |]
  | Reduce _ -> [||]
  | Add_n (a :: _) -> shapes.(a)
  | Add_n [] -> [||]
  | Concat0 (a, _) ->
      let s = Array.copy shapes.(a) in
      s.(0) <- 2 * s.(0);
      s
  | Transpose2 a -> [| shapes.(a).(1); shapes.(a).(0) |]

(* Generate a program of [ops] instructions after a fixed set of leaves.
   Operand picks that need a matching partner fall back to a unary op
   when none exists, so generation never fails. *)
let gen_program ?(unary_ops = unary_ops) ?(binary_ops = binary_ops) rng ~ops
    =
  let leaves =
    [ Leaf [||]; Leaf [| 4 |]; Leaf [| 3; 4 |]; Leaf [| 4; 5 |];
      Fed [| 4 |]; Fed [| 3; 4 |] ]
  in
  let n_leaves = List.length leaves in
  let n = n_leaves + ops in
  let prog = Array.make n (Leaf [||]) in
  let shapes = Array.make n [||] in
  List.iteri (fun i l -> prog.(i) <- l) leaves;
  List.iteri (fun i _ -> shapes.(i) <- shape_of shapes prog.(i)) leaves;
  (* A partner for [a] with the same shape, or a scalar (broadcasts with
     everything); [a] itself is allowed. *)
  let pick_partner i a =
    let candidates = ref [] in
    for j = 0 to i - 1 do
      if Shape.equal shapes.(j) shapes.(a) || Array.length shapes.(j) = 0 then
        candidates := j :: !candidates
    done;
    match !candidates with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let same_shape_partner i a =
    match pick_partner i a with
    | Some b when Shape.equal shapes.(b) shapes.(a) -> Some b
    | _ -> None
  in
  for i = n_leaves to n - 1 do
    let a = Rng.int rng i in
    let fallback () =
      Unary (unary_ops.(Rng.int rng (Array.length unary_ops)), a)
    in
    let instr =
      match Rng.int rng 10 with
      | 0 | 1 | 2 -> fallback ()
      | 3 | 4 -> (
          match pick_partner i a with
          | Some b ->
              Binary (binary_ops.(Rng.int rng (Array.length binary_ops)), a, b)
          | None -> fallback ())
      | 5 -> (
          (* matmul: any rank-2 pair with a matching inner dimension *)
          let pairs = ref [] in
          for x = 0 to i - 1 do
            for y = 0 to i - 1 do
              if
                Array.length shapes.(x) = 2
                && Array.length shapes.(y) = 2
                && shapes.(x).(1) = shapes.(y).(0)
              then pairs := (x, y) :: !pairs
            done
          done;
          match !pairs with
          | [] -> fallback ()
          | l ->
              let x, y = List.nth l (Rng.int rng (List.length l)) in
              Matmul (x, y))
      | 6 ->
          Reduce
            ( (match Rng.int rng 3 with
              | 0 -> "ReduceSum"
              | 1 -> "ReduceMean"
              | _ -> "ReduceMax"),
              a )
      | 7 -> (
          match (pick_partner i a, pick_partner i a) with
          | Some b, Some c -> Add_n [ a; b; c ]
          | Some b, None -> Add_n [ a; b ]
          | _ -> fallback ())
      | 8 ->
          if Array.length shapes.(a) = 2 && Rng.int rng 2 = 0 then Transpose2 a
          else if Array.length shapes.(a) >= 1 then
            match same_shape_partner i a with
            | Some b -> Concat0 (a, b)
            | None -> fallback ()
          else fallback ()
      | _ -> (
          match same_shape_partner i a with
          | Some b -> Choose (a, b)
          | None -> fallback ())
    in
    prog.(i) <- instr;
    shapes.(i) <- shape_of shapes instr
  done;
  prog

(* Fetch every sink: instructions no later instruction consumes. *)
let sinks prog k =
  let consumed = Array.make k false in
  for i = 0 to k - 1 do
    let mark a = if a < k then consumed.(a) <- true in
    match prog.(i) with
    | Leaf _ | Fed _ -> ()
    | Unary (_, a) | Reduce (_, a) | Transpose2 a -> mark a
    | Binary (_, a, b') | Matmul (a, b') | Concat0 (a, b') | Choose (a, b') ->
        mark a;
        mark b'
    | Add_n srcs -> List.iter mark srcs
  done;
  List.filter (fun i -> not consumed.(i)) (List.init k Fun.id)

(* [x * x + 1]: at least 1, a safe argument for Log/Sqrt/Reciprocal, a
   divisor for Div/Mod and a base for Pow. *)
let square_plus_one b x = B.add b (B.square b x) (B.const_f b 1.0)

let apply_unary b op x =
  match op with
  | "Neg" -> B.neg b x
  | "Abs" -> B.abs b x
  | "Square" -> B.square b x
  | "Relu" -> B.relu b x
  | "Sigmoid" -> B.sigmoid b x
  | "Tanh" -> B.tanh b x
  | "Identity" -> B.identity b x
  | "StopGradient" -> B.stop_gradient b x
  | "Sign" -> B.sign b x
  | "Exp" -> B.exp b (B.tanh b x)
  | "Log" -> B.log b (square_plus_one b x)
  | "Sqrt" -> B.sqrt b (square_plus_one b x)
  | "Reciprocal" -> B.reciprocal b (square_plus_one b x)
  | _ -> assert false

let apply_binary b op x y =
  match op with
  | "Add" -> B.add b x y
  | "Sub" -> B.sub b x y
  | "Mul" -> B.mul b x y
  | "Maximum" -> B.maximum b x y
  | "Minimum" -> B.minimum b x y
  | "Div" -> B.div b x (square_plus_one b y)
  | "Pow" -> B.pow b (square_plus_one b x) (B.tanh b y)
  | "Mod" -> B.modulo b x (square_plus_one b y)
  | "ReluGrad" -> B.relu_grad b x y
  | _ -> assert false

(* Build the graph for a program prefix of length [k] and return the
   fetches (every sink, so nothing is silently unused) and the feed
   list. Leaf/feed values come from a generator re-seeded per build, so
   every configuration sees the same numbers. *)
let build_graph prog k =
  let b = B.create () in
  let vrng = Rng.create 77 in
  let tensor shape = Tensor.uniform vrng shape ~lo:(-1.0) ~hi:1.0 in
  let outs = Array.make k (B.const_f b 0.0) in
  let feeds = ref [] in
  for i = 0 to k - 1 do
    let o =
      match prog.(i) with
      | Leaf s -> B.const b (tensor s)
      | Fed s ->
          let ph = B.placeholder b Dtype.F32 in
          feeds := (ph, tensor s) :: !feeds;
          ph
      | Unary (op, a) -> apply_unary b op outs.(a)
      | Binary (op, a, b') -> apply_binary b op outs.(a) outs.(b')
      | Matmul (a, b') -> B.matmul b outs.(a) outs.(b')
      | Reduce (op, a) -> (
          match op with
          | "ReduceSum" -> B.reduce_sum b outs.(a)
          | "ReduceMean" -> B.reduce_mean b outs.(a)
          | _ -> B.reduce_max b outs.(a))
      | Add_n srcs -> B.add_n b (List.map (fun s -> outs.(s)) srcs)
      | Concat0 (a, b') -> B.concat b ~axis:0 [ outs.(a); outs.(b') ]
      | Transpose2 a -> B.transpose b outs.(a)
      | Choose (a, b') ->
          B.select b (B.greater b outs.(a) outs.(b')) outs.(a) outs.(b')
    in
    outs.(i) <- o
  done;
  (b, List.map (fun i -> outs.(i)) (sinks prog k), !feeds)

(* The control-flow leg routes a program's fetched values through the
   frame machinery: every sink passes through a [cond] on a fed
   predicate (seed parity picks the branch, so the corpus covers both),
   and the first sink is also the variable of a [while_loop] of 1-3
   trips whose body applies a seeded op from the same pool, with the
   other sinks (and the trip limit) passed in as loop invariants. The
   loop reads the raw sinks, so values enter its frame straight from
   their (often planner-owned) producers. *)
let build_cf_graph seed prog k =
  let b, fetches, feeds = build_graph prog k in
  match fetches with
  | [] -> (b, [], feeds)
  | _ ->
      let rng = Rng.create (5000 + seed) in
      let unary () = unary_ops.(Rng.int rng (Array.length unary_ops)) in
      let then_op = unary () and else_op = unary () in
      let pred = B.placeholder b Dtype.Bool in
      let feeds = (pred, Tensor.scalar_b (seed mod 2 = 0)) :: feeds in
      let conds =
        B.cond b pred ~inputs:fetches
          ~then_:(fun b xs -> List.map (apply_unary b then_op) xs)
          ~else_:(fun b xs -> List.map (apply_unary b else_op) xs)
      in
      let x0 = List.hd fetches and invariants = List.tl fetches in
      let trips = 1 + Rng.int rng 3 in
      let binary_op = binary_ops.(Rng.int rng (Array.length binary_ops)) in
      let body_unary = unary () in
      (* The body's binary op takes a partner of the loop variable's
         shape, or a scalar, so the loop variable keeps its shape across
         trips. *)
      let shapes = Array.make k [||] in
      for i = 0 to k - 1 do
        shapes.(i) <- shape_of shapes prog.(i)
      done;
      let sink_shapes = List.map (fun i -> shapes.(i)) (sinks prog k) in
      let x_shape = List.hd sink_shapes in
      let partner =
        match
          List.filter
            (fun (_, s) -> Shape.equal s x_shape || Array.length s = 0)
            (List.mapi (fun i s -> (i, s)) (List.tl sink_shapes))
        with
        | [] -> None
        | l -> Some (fst (List.nth l (Rng.int rng (List.length l))))
      in
      let results =
        B.while_loop b
          ~invariants:(B.const_f b (float_of_int trips) :: invariants)
          ~cond:(fun b vars ->
            match vars with
            | i :: _ :: limit :: _ -> B.less b i limit
            | _ -> assert false)
          ~body:(fun b vars ->
            match vars with
            | i :: x :: _limit :: invs ->
                let x' =
                  match partner with
                  | Some p -> apply_binary b binary_op x (List.nth invs p)
                  | None -> apply_unary b body_unary x
                in
                [ B.add b i (B.ones_like b i); x' ]
            | _ -> assert false)
          [ B.const_f b 0.0; x0 ]
      in
      (b, List.nth results 1 :: conds, feeds)

let configs =
  List.concat_map
    (fun fusion ->
      List.concat_map
        (fun planning ->
          List.concat_map
            (fun scheduler ->
              List.map
                (fun threads -> (fusion, planning, scheduler, threads))
                [ 1; 4 ])
            [ Scheduler.Inline; Scheduler.Pool ])
        [ false; true ])
    [ false; true ]

let config_to_string (fusion, planning, scheduler, threads) =
  Printf.sprintf "fusion=%b planning=%b scheduler=%s threads=%d" fusion
    planning
    (Scheduler.policy_to_string scheduler)
    threads

(* Run the program prefix under every configuration; Some description on
   the first divergence from the reference config, None if all agree. *)
let divergence ~build prog k =
  let _, probe_fetches, _ = build prog k in
  if probe_fetches = [] then None
  else begin
    let run (fusion, planning, scheduler, threads) =
      Parallel.set_threads threads;
      (* Each configuration rebuilds the (deterministically identical)
         graph: the fuse pass rewrites the graph in place at compile
         time, so sharing one graph would leak fused nodes into the
         unfused legs. *)
      let b, fetches, feeds = build prog k in
      let s =
        if fusion then
          Session.create
            ~config:
              (Session.Config.v
                 ~passes:[ Graph_optimizer.Fuse; Graph_optimizer.Prune ]
                 ~scheduler ~memory_planning:planning ())
            (B.graph b)
        else
          Session.create
            ~config:
              (Session.Config.v ~passes:[] ~scheduler
                 ~memory_planning:planning ())
            (B.graph b)
      in
      Session.run ~feeds s fetches
    in
    let reference = run (List.hd configs) in
    List.fold_left
      (fun acc config ->
        match acc with
        | Some _ -> acc
        | None ->
            let got = run config in
            if List.for_all2 Tensor.equal reference got then None
            else
              Some
                (Printf.sprintf "fetches diverge: %s vs %s"
                   (config_to_string (List.hd configs))
                   (config_to_string config)))
      None (List.tl configs)
  end

let program_to_string prog k =
  String.concat "\n" (List.init k (fun i -> "  " ^ instr_to_string i prog.(i)))

(* Quantized legs: the dynamic Quantize pass rewrites every eligible
   matmul (const rhs weights) to 8-bit arithmetic, so fetches are NOT
   bit-identical to the float reference — they must instead stay within
   the quantization error budget, and the quantized runs themselves
   must be bit-identical across schedulers and thread counts (the
   integer kernels shard deterministically).

   Error model: one dynamically quantized matmul with operands bounded
   by M and inner dimension k contributes at most
   k * (2M * step/2 + step^2/4) with step <= 2M/255 — about 0.008*k*M^2
   in absolute terms; downstream ops propagate and (matmul/add_n)
   amplify it linearly in M. The tolerance below is that analytic
   per-island bound scaled by the graph's observed magnitude, with a
   comfortable constant margin for chained islands. *)
let quant_configs =
  [
    (Scheduler.Inline, 1); (Scheduler.Inline, 4);
    (Scheduler.Pool, 1); (Scheduler.Pool, 4);
  ]

let max_abs tensors =
  List.fold_left
    (fun acc t ->
      let m = ref acc in
      for i = 0 to Tensor.numel t - 1 do
        m := Float.max !m (Float.abs (Tensor.flat_get_f t i))
      done;
      !m)
    0.0 tensors

let quant_divergence prog k =
  let _, probe_fetches, _ = build_graph prog k in
  if probe_fetches = [] then None
  else begin
    let run ~quantize (scheduler, threads) =
      Parallel.set_threads threads;
      let b, fetches, feeds = build_graph prog k in
      let s =
        if quantize then
          Session.create
            ~config:
              (Session.Config.v
                 ~passes:
                   [
                     Graph_optimizer.Quantize (fun _ -> None);
                     Graph_optimizer.Prune;
                   ]
                 ~scheduler ())
            (B.graph b)
        else
          Session.create
            ~config:(Session.Config.v ~passes:[] ~scheduler ())
            (B.graph b)
      in
      Session.run ~feeds s fetches
    in
    let reference = run ~quantize:false (List.hd quant_configs) in
    (* magnitude-scaled analytic tolerance; the +0.05 floor covers
       near-zero fetches downstream of cancelling subtractions *)
    let m = Float.max 1.0 (max_abs reference) in
    let tol = 0.05 +. (0.05 *. m *. m) in
    let q_reference = run ~quantize:true (List.hd quant_configs) in
    let within_tol =
      List.for_all2
        (fun r q ->
          let ok = ref true in
          for i = 0 to Tensor.numel r - 1 do
            if
              Float.abs (Tensor.flat_get_f r i -. Tensor.flat_get_f q i)
              > tol
            then ok := false
          done;
          !ok)
        reference q_reference
    in
    if not within_tol then
      Some
        (Printf.sprintf
           "quantized fetches exceed error budget %.3f vs float reference" tol)
    else
      List.fold_left
        (fun acc config ->
          match acc with
          | Some _ -> acc
          | None ->
              let got = run ~quantize:true config in
              if List.for_all2 Tensor.equal q_reference got then None
              else
                Some
                  (Printf.sprintf
                     "quantized fetches diverge: scheduler=%s threads=%d \
                      not bit-identical to the quantized reference"
                     (Scheduler.policy_to_string (fst config))
                     (snd config)))
        None (List.tl quant_configs)
  end

(* The same 200-DAG corpus as the bit-identical harness, under the
   dynamic quantization pass: eligible graphs (matmul with const rhs)
   run quantized, everything else passes through untouched. *)
let test_random_dags_quantized () =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  let graphs = 200 in
  for seed = 1 to graphs do
    let rng = Rng.create (1000 + seed) in
    let ops = 4 + Rng.int rng 11 in
    let prog = gen_program rng ~ops in
    let n = Array.length prog in
    match quant_divergence prog n with
    | None -> ()
    | Some full_msg ->
        let k = ref n and msg = ref full_msg in
        (try
           for j = 1 to n - 1 do
             match quant_divergence prog j with
             | Some m ->
                 k := j;
                 msg := m;
                 raise Exit
             | None -> ()
           done
         with Exit -> ());
        Alcotest.failf "seed %d, shrunk to %d instructions: %s\n%s" seed !k
          !msg
          (program_to_string prog !k)
  done

let random_dags ?(every_op = false) ~control_flow () =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  let graphs = 200 in
  for seed = 1 to graphs do
    let rng = Rng.create (1000 + seed) in
    let ops = 4 + Rng.int rng 11 in
    let prog =
      if every_op then
        gen_program ~unary_ops:all_unary_ops ~binary_ops:all_binary_ops rng
          ~ops
      else gen_program rng ~ops
    in
    let n = Array.length prog in
    let divergence =
      divergence
        ~build:(if control_flow then build_cf_graph seed else build_graph)
    in
    match divergence prog n with
    | None -> ()
    | Some full_msg ->
        (* Shrink: the shortest prefix that still diverges. Prefixes of
           a straight-line program are always valid graphs. *)
        let k = ref n and msg = ref full_msg in
        (try
           for j = 1 to n - 1 do
             match divergence prog j with
             | Some m ->
                 k := j;
                 msg := m;
                 raise Exit
             | None -> ()
           done
         with Exit -> ());
        Alcotest.failf "seed %d, shrunk to %d instructions: %s\n%s" seed !k
          !msg
          (program_to_string prog !k)
  done

(* Pipelined legs: a stateless program must fetch bit-identical tensors
   whether run synchronously or issued through run_async at K = 1 (the
   barrier: steps serialize and read live variables) or at K = 4 —
   admission snapshots only redirect
   Read kernels, which a stateless graph has none of. Checked across
   both schedulers and two intra-op budgets. *)
let test_pipelined_stateless () =
  let saved = Parallel.threads () in
  Fun.protect ~finally:(fun () -> Parallel.set_threads saved) @@ fun () ->
  let rng = Rng.create 4242 in
  let prog = gen_program rng ~ops:10 in
  let b, fetches, feeds = build_graph prog (Array.length prog) in
  Alcotest.(check bool) "program has fetches" true (fetches <> []);
  List.iter
    (fun (scheduler, threads) ->
      Parallel.set_threads threads;
      let sync =
        let s =
          Session.create
            ~config:(Session.Config.v ~passes:[] ~scheduler ())
            (B.graph b)
        in
        Session.run ~feeds s fetches
      in
      List.iter
        (fun (label, max_in_flight) ->
          let s =
            Session.create
              ~config:(Session.Config.v ~passes:[] ~scheduler ~max_in_flight ())
              (B.graph b)
          in
          let options = Session.Run_options.v ~feeds () in
          let handles =
            List.init 8 (fun _ -> Session.run_async ~options s fetches)
          in
          List.iter
            (fun h ->
              let got, _ = Session.wait h in
              if not (List.for_all2 Tensor.equal sync got) then
                Alcotest.failf
                  "pipelined %s diverges from sync (scheduler=%s threads=%d)"
                  label
                  (Scheduler.policy_to_string scheduler)
                  threads)
            handles;
          Session.drain s)
        [ ("K=1", 1); ("K=4", 4) ])
    [
      (Scheduler.Inline, 1);
      (Scheduler.Inline, 4);
      (Scheduler.Pool, 1);
      (Scheduler.Pool, 4);
    ]

(* Variable updates from K = 4 in-flight steps apply under the
   variable's lock in completion order: the final state of an
   associative update graph is the exact linearizable sum, whatever the
   interleaving. *)
let test_pipelined_variable_updates () =
  let b = B.create () in
  let v = B.variable b ~name:"acc" ~dtype:Dtype.F32 ~shape:[||] () in
  let init = B.assign b v (B.const_f b 0.0) in
  let bump = B.assign_add b v (B.const_f b 1.0) in
  let read = B.read b v in
  let s =
    Session.create ~config:(Session.Config.v ~max_in_flight:4 ()) (B.graph b)
  in
  Session.run_unit s [ init ];
  let handles = List.init 20 (fun _ -> Session.run_async s [ bump ]) in
  List.iter (fun h -> ignore (Session.wait h)) handles;
  Session.drain s;
  match Session.run s [ read ] with
  | [ t ] ->
      Alcotest.(check (float 0.0)) "linearizable sum" 20.0
        (Tensor.flat_get_f t 0)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "200 random DAGs, 16 configs, bit-identical" `Quick
      (random_dags ~control_flow:false);
    Alcotest.test_case "200 random DAGs, quantized within error budget" `Quick
      test_random_dags_quantized;
    Alcotest.test_case "pipelined K=1/K=4/barrier bit-identical" `Quick
      test_pipelined_stateless;
    Alcotest.test_case "pipelined variable updates linearize" `Quick
      test_pipelined_variable_updates;
    Alcotest.test_case
      "cond and while_loop over 200 random DAGs, 16 configs, bit-identical"
      `Quick (random_dags ~control_flow:true);
    Alcotest.test_case
      "200 random DAGs over every fusable op, 16 configs, bit-identical"
      `Quick
      (random_dags ~every_op:true ~control_flow:false);
  ]
