(* The elementwise engine. Every elementwise evaluation in the runtime
   runs here: a standalone kernel (Add, Relu, ...) is the one-op
   expression over its inputs, a FusedElementwise node (the graph
   optimizer's Fuse pass collapses a tree of pure elementwise ops into
   one) is the whole tree, and comparisons, Select and broadcast_to use
   the same operand loader. One pass over one output buffer evaluates
   the expression, so a 10-op chain costs one read and one write of
   memory instead of ten.

   Each op's scalar formula is written once, as its block loop in
   [unary_ops]/[binary_ops]. Fused and unfused execution run the same
   loops over the same operand values, so they agree bit for bit by
   construction. For non-float dtypes every op's result truncates
   through [int_of_float] before the next op reads it, and the output
   is materialized at its dtype by [Tensor.cast]; fusion removes no
   truncation. *)

type expr =
  | Input of int
  | Unary of string * expr
  | Binary of string * expr * expr

(* Block loops: [d.(dof + i) <- f a.(aof + i)] (or [f a b]) for
   [i < len]. [d] may be [a] or [b] at the same offset: index [i] is
   read before it is written, so evaluation in place is safe. Written
   out per op, with the primitive inlined into the loop: a closure call
   per element would box every float result. *)
type unary_block = float array -> int -> float array -> int -> int -> unit

type binary_block =
  float array -> int -> float array -> int -> float array -> int -> int -> unit

let unary_ops : (string * unary_block) list =
  [
    ( "Neg",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- -.a.(aof + i)
        done );
    ( "Abs",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Float.abs a.(aof + i)
        done );
    ( "Sign",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          let x = a.(aof + i) in
          d.(dof + i) <-
            (if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
        done );
    ( "Exp",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Stdlib.exp a.(aof + i)
        done );
    ( "Log",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Stdlib.log a.(aof + i)
        done );
    ( "Sqrt",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Stdlib.sqrt a.(aof + i)
        done );
    ( "Square",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          let x = a.(aof + i) in
          d.(dof + i) <- x *. x
        done );
    ( "Reciprocal",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- 1.0 /. a.(aof + i)
        done );
    (* [Float.max 0.0 x], spelled out so the loop makes no call: x when
       x > 0 or NaN, else +0 (so -0 maps to +0). *)
    ( "Relu",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          let x = a.(aof + i) in
          d.(dof + i) <- (if x > 0.0 || Float.is_nan x then x else 0.0)
        done );
    ( "Sigmoid",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- 1.0 /. (1.0 +. Stdlib.exp (-.a.(aof + i)))
        done );
    ( "Tanh",
      fun d dof a aof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Stdlib.tanh a.(aof + i)
        done );
  ]

let binary_ops : (string * binary_block) list =
  [
    ( "Add",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- a.(aof + i) +. b.(bof + i)
        done );
    ( "Sub",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- a.(aof + i) -. b.(bof + i)
        done );
    ( "Mul",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- a.(aof + i) *. b.(bof + i)
        done );
    ( "Div",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- a.(aof + i) /. b.(bof + i)
        done );
    ( "Pow",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- a.(aof + i) ** b.(bof + i)
        done );
    (* Floor-mod (TF FloorMod): the result takes the divisor's sign and
       fractional operands are exact, with no truncation through int. *)
    ( "Mod",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          let y = b.(bof + i) in
          let r = Float.rem a.(aof + i) y in
          d.(dof + i) <-
            (if r <> 0.0 && r < 0.0 <> (y < 0.0) then r +. y else r)
        done );
    ( "Maximum",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Float.max a.(aof + i) b.(bof + i)
        done );
    ( "Minimum",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- Float.min a.(aof + i) b.(bof + i)
        done );
    (* ReluGrad (dy, x): dy where the forward input x is positive. *)
    ( "ReluGrad",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- (if b.(bof + i) > 0.0 then a.(aof + i) else 0.0)
        done );
  ]

(* Comparisons produce 1.0 / 0.0 and a Bool tensor. They are not
   fusable (a Bool value cannot feed an arithmetic op), so they live
   apart from [binary_ops]. *)
let comparison_ops : (string * binary_block) list =
  [
    ( "Equal",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- (if a.(aof + i) = b.(bof + i) then 1.0 else 0.0)
        done );
    ( "Less",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- (if a.(aof + i) < b.(bof + i) then 1.0 else 0.0)
        done );
    ( "Greater",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- (if a.(aof + i) > b.(bof + i) then 1.0 else 0.0)
        done );
    ( "GreaterEqual",
      fun d dof a aof b bof len ->
        for i = 0 to len - 1 do
          d.(dof + i) <- (if a.(aof + i) >= b.(bof + i) then 1.0 else 0.0)
        done );
  ]

(* Select (cond, a, b): a where cond is non-zero, else b. *)
let select_block d dof c cof a aof b bof len =
  for i = 0 to len - 1 do
    d.(dof + i) <- (if c.(cof + i) <> 0.0 then a.(aof + i) else b.(bof + i))
  done

let unary_op_names = List.map fst unary_ops
let binary_op_names = List.map fst binary_ops
let is_unary op = List.mem_assoc op unary_ops
let is_binary op = List.mem_assoc op binary_ops

let find table kind op =
  match List.assoc_opt op table with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fused_eval: unknown %s %s" kind op)

let rec num_inputs = function
  | Input k -> k + 1
  | Unary (_, e) -> num_inputs e
  | Binary (_, a, b) -> max (num_inputs a) (num_inputs b)

let rec op_count = function
  | Input _ -> 0
  | Unary (_, e) -> 1 + op_count e
  | Binary (_, a, b) -> 1 + op_count a + op_count b

(* Wire format for the node attribute: postfix token list, inputs as
   "in<k>", operations by their graph op_type. *)
let to_postfix expr =
  (* [go acc e] returns [rev (postfix e) @ acc]: operator first, then
     the second operand's tokens, then the first's — reversing at the
     end yields true postfix, which [of_postfix] pops b-then-a. *)
  let rec go acc = function
    | Input k -> Printf.sprintf "in%d" k :: acc
    | Unary (op, e) -> op :: go acc e
    | Binary (op, a, b) -> op :: go (go acc a) b
  in
  List.rev (go [] expr)

let of_postfix tokens =
  let stack = ref [] in
  List.iter
    (fun tok ->
      if String.length tok > 2 && String.sub tok 0 2 = "in" then
        match int_of_string_opt (String.sub tok 2 (String.length tok - 2)) with
        | Some k when k >= 0 -> stack := Input k :: !stack
        | _ -> invalid_arg ("Fused_eval.of_postfix: bad input token " ^ tok)
      else if is_unary tok then
        match !stack with
        | e :: rest -> stack := Unary (tok, e) :: rest
        | [] -> invalid_arg "Fused_eval.of_postfix: unary underflow"
      else if is_binary tok then
        match !stack with
        | b :: a :: rest -> stack := Binary (tok, a, b) :: rest
        | _ -> invalid_arg "Fused_eval.of_postfix: binary underflow"
      else invalid_arg ("Fused_eval.of_postfix: unknown token " ^ tok))
    tokens;
  match !stack with
  | [ e ] -> e
  | _ -> invalid_arg "Fused_eval.of_postfix: ill-formed expression"

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* The broadcast loader, the one way an operand is read unless it
   already has the output's element count. [loader src src_shape
   out_shape] returns [fun dst dof pos len], writing the source
   elements at output flat indices [pos, pos + len) to
   [dst.(dof .. dof + len - 1)].

   The output dimensions (size-1 ones dropped) are merged into groups
   of adjacent dimensions the source either spans (copied, contiguous
   in the source) or broadcasts (repeated). The innermost group yields
   runs: a copy of consecutive source elements, or a fill with one. An
   odometer over the outer groups moves the source offset once per run,
   so a [C]-element bias broadcast over [N;H;W;C] costs one short copy
   per C elements and no per-element index arithmetic. *)
let loader src src_shape out_shape =
  let r = Array.length out_shape and rs = Array.length src_shape in
  let size = Array.make (imax 1 r) 1 in
  let stride = Array.make (imax 1 r) 0 in
  let groups = ref 0 and src_stride = ref 1 in
  for dim = r - 1 downto 0 do
    let od = out_shape.(dim) in
    if od <> 1 then begin
      let sd = if dim < r - rs then 1 else src_shape.(dim - (r - rs)) in
      let copied = sd <> 1 in
      let g = !groups - 1 in
      if g >= 0 && (stride.(g) <> 0) = copied then size.(g) <- size.(g) * od
      else begin
        size.(!groups) <- od;
        stride.(!groups) <- (if copied then !src_stride else 0);
        incr groups
      end;
      if copied then src_stride := !src_stride * sd
    end
  done;
  let groups = imax 1 !groups in
  let inner = size.(0) and copied = stride.(0) <> 0 in
  fun dst dof pos len ->
    let digit = Array.make groups 0 in
    let base = ref 0 and rest = ref (pos / inner) in
    for g = 1 to groups - 1 do
      digit.(g) <- !rest mod size.(g);
      base := !base + (digit.(g) * stride.(g));
      rest := !rest / size.(g)
    done;
    let at = ref (pos mod inner) and k = ref 0 in
    while !k < len do
      let run = imin (inner - !at) (len - !k) in
      let o = dof + !k in
      (if copied then begin
         let s = !base + !at in
         for i = 0 to run - 1 do
           dst.(o + i) <- src.(s + i)
         done
       end
       else
         let v = src.(!base) in
         for i = 0 to run - 1 do
           dst.(o + i) <- v
         done);
      k := !k + run;
      at := 0;
      (* Advance the outer odometer by one inner row. *)
      let g = ref 1 in
      while !g < groups do
        digit.(!g) <- digit.(!g) + 1;
        base := !base + stride.(!g);
        if digit.(!g) = size.(!g) then begin
          digit.(!g) <- 0;
          base := !base - (size.(!g) * stride.(!g));
          incr g
        end
        else g := groups
      done
    done

(* A compiled program is the expression in postfix: [Arg k] pushes
   input k, [Un]/[Bin] replace the top one/two stack entries with their
   result, [Sel] the top three (cond, a, b). *)
type step =
  | Arg of int
  | Un of unary_block
  | Bin of binary_block
  | Sel

type program = { steps : step array; depth : int; ops : int }

let compile expr =
  let rec go acc = function
    | Input k -> Arg k :: acc
    | Unary (op, e) -> Un (find unary_ops "unary" op) :: go acc e
    | Binary (op, a, b) ->
        Bin (find binary_ops "binary" op) :: go (go acc a) b
  in
  let rec depth = function
    | Input _ -> 1
    | Unary (_, e) -> depth e
    (* left-to-right postfix: a's tokens run first, then b's on top *)
    | Binary (_, a, b) -> max (depth a) (1 + depth b)
  in
  {
    steps = Array.of_list (List.rev (go [] expr));
    depth = depth expr;
    ops = op_count expr;
  }

(* How each input is read: in place when it already has the output's
   element count (its broadcast is the identity), through the loader
   otherwise. *)
type access =
  | View of float array
  | Load of (float array -> int -> int -> int -> unit)

(* 256 floats, so each scratch chunk is a minor-heap allocation
   (Max_young_wosize is 256 words). With 1024 every broadcast op
   allocated its scratch in the major heap, and the serve_cnn workload's
   peak RSS rose from 55 to 86 MB. *)
let chunk = 256

(* Shards span at least this many elements (half as many when the
   per-element work is more than one op on operands read in place):
   below it the intra-op dispatch costs more than the loop. *)
let grain = 8192

(* How the stack machine reads input [t] for an output of [n]
   elements. *)
let access_of ~n ~out_shape t =
  let buf =
    if Dtype.is_floating (Tensor.dtype t) then Tensor.float_buffer t
    else Tensor.to_float_array t
  in
  if Array.length buf = n then View buf
  else Load (loader buf (Tensor.shape t) out_shape)

(* The stack machine over [prog]: the shard body writing [out]. A
   shard walks its index range in chunks of at most [chunk] elements
   and runs every step over the chunk, so operator dispatch is paid
   once per chunk and intermediates stay in L1-sized scratch. Stack
   entries are (buffer, offset) pairs: an input with the output's
   element count is used in place, and the bottom slot writes straight
   into [out] when aliasing allows. *)
let stack_machine ~granted ~truncate ~out_shape ~n prog inputs out =
  let access = Array.map (access_of ~n ~out_shape) inputs in
  (* The bottom slot writes into [out] unless [out] is a granted input
     buffer that a later step might still read: then it lives in
     scratch and is copied out at the end of each chunk. With one op,
     only a broadcast load into the bottom slot writes [out] early. *)
  let bottom =
    (not granted)
    || prog.ops = 1
       &&
       match prog.steps.(0) with
       | Arg k -> ( match access.(k) with View _ -> true | Load _ -> false)
       | Un _ | Bin _ | Sel -> false
  in
  let steps = prog.steps and depth = prog.depth in
  fun lo hi ->
    let scratch = Array.make depth [||] in
    let ebuf = Array.make depth out and eoff = Array.make depth 0 in
    (* Point stack slot [p] at where its next value is written. *)
    let target p pos =
      if p = 0 && bottom then begin
        ebuf.(0) <- out;
        eoff.(0) <- pos
      end
      else begin
        if Array.length scratch.(p) = 0 then
          scratch.(p) <- Array.create_float (imin chunk (hi - lo));
        ebuf.(p) <- scratch.(p);
        eoff.(p) <- 0
      end
    in
    let next = ref lo in
    while !next < hi do
      let pos = !next in
      let len = imin chunk (hi - pos) in
      next := pos + len;
      let sp = ref 0 in
      for s = 0 to Array.length steps - 1 do
        let p =
          match steps.(s) with
          | Arg k ->
              let p = !sp in
              (match access.(k) with
              | View b ->
                  ebuf.(p) <- b;
                  eoff.(p) <- pos
              | Load load ->
                  target p pos;
                  load ebuf.(p) eoff.(p) pos len);
              incr sp;
              -1
          | Un f ->
              let p = !sp - 1 in
              let a = ebuf.(p) and ao = eoff.(p) in
              target p pos;
              f ebuf.(p) eoff.(p) a ao len;
              p
          | Bin f ->
              let p = !sp - 2 in
              let a = ebuf.(p) and ao = eoff.(p) in
              target p pos;
              f ebuf.(p) eoff.(p) a ao ebuf.(p + 1) eoff.(p + 1) len;
              decr sp;
              p
          | Sel ->
              let p = !sp - 3 in
              let c = ebuf.(p) and co = eoff.(p) in
              target p pos;
              select_block ebuf.(p) eoff.(p) c co ebuf.(p + 1)
                eoff.(p + 1) ebuf.(p + 2) eoff.(p + 2) len;
              sp := p + 1;
              -1
        in
        (* An arithmetic op's non-float result truncates before the
           next op reads it. *)
        if truncate && p >= 0 then begin
          let d = ebuf.(p) and o = eoff.(p) in
          for i = o to o + len - 1 do
            d.(i) <- float_of_int (int_of_float d.(i))
          done
        end
      done;
      if not (ebuf.(0) == out && eoff.(0) = pos) then
        Array.blit ebuf.(0) eoff.(0) out pos len
    done

(* Evaluate [prog] over [out_shape] into a [dtype] tensor. *)
let run ?out ~dtype ~truncate ~out_shape prog inputs =
  let n = Shape.numel out_shape in
  let floating = Dtype.is_floating dtype in
  let granted =
    match out with
    | Some o -> floating && Array.length o = n
    | None -> false
  in
  let out =
    match out with
    | Some o when granted -> o
    | _ when floating -> Buffer_pool.alloc_float ~zero:false n
    | _ -> Array.create_float n
  in
  (* Inputs that are float buffers of the output's size are read in
     place; a smaller one broadcasts through the loader. *)
  let in_place = ref true and loads = ref false in
  for k = 0 to Array.length inputs - 1 do
    match inputs.(k).Tensor.buf with
    | Tensor.Float_buf a when Array.length a = n -> ()
    | _ ->
        in_place := false;
        if Tensor.numel inputs.(k) <> n then loads := true
  done;
  let grain = if prog.ops > 1 || !loads then grain / 2 else grain in
  (* One float op over in-place operands: the op's block loop runs over
     the whole shard straight into [out], with none of the stack
     machine's set-up, which would cost a 10-element op more than its
     loop. Safe under any aliasing: the loop reads index i before it
     writes it. *)
  let shard =
    match (prog.steps, inputs) with
    | [| Arg 0; Un f |], [| { buf = Float_buf a; _ } |] when !in_place ->
        fun lo hi -> f out lo a lo (hi - lo)
    | ( [| Arg 0; Arg 1; Bin f |],
        [| { buf = Float_buf a; _ }; { buf = Float_buf b; _ } |] )
      when !in_place ->
        fun lo hi -> f out lo a lo b lo (hi - lo)
    | _ -> stack_machine ~granted ~truncate ~out_shape ~n prog inputs out
  in
  Parallel.parallel_for ~grain n shard;
  if floating then Tensor.create dtype out_shape (Float_buf out)
  else Tensor.cast (Tensor.create Dtype.F64 out_shape (Float_buf out)) dtype

let broadcast_shape inputs =
  let shape = ref (Tensor.shape inputs.(0)) in
  for k = 1 to Array.length inputs - 1 do
    let s = Tensor.shape inputs.(k) in
    if not (Shape.equal !shape s) then shape := Shape.broadcast !shape s
  done;
  !shape

(* Arithmetic: every input has the result's dtype. *)
let run_arith ?out prog inputs =
  let dtype = Tensor.dtype inputs.(0) in
  for k = 1 to Array.length inputs - 1 do
    let d = Tensor.dtype inputs.(k) in
    if not (Dtype.equal d dtype) then
      invalid_arg
        (Printf.sprintf "Fused_eval: dtype mismatch %s vs %s"
           (Dtype.to_string dtype) (Dtype.to_string d))
  done;
  run ?out ~dtype ~truncate:(not (Dtype.is_floating dtype))
    ~out_shape:(broadcast_shape inputs) prog inputs

let eval ?out expr inputs =
  if Array.length inputs < num_inputs expr then
    invalid_arg "Fused_eval.eval: expression references missing inputs";
  run_arith ?out (compile expr) inputs

let unary op =
  let prog = compile (Unary (op, Input 0)) in
  fun ?out t ->
    let dtype = t.Tensor.dtype in
    run ?out ~dtype ~truncate:(not (Dtype.is_floating dtype))
      ~out_shape:t.Tensor.shape prog [| t |]

let binary op =
  let prog = compile (Binary (op, Input 0, Input 1)) in
  fun ?out a b -> run_arith ?out prog [| a; b |]

let comparison op =
  let prog =
    {
      steps = [| Arg 0; Arg 1; Bin (find comparison_ops "comparison" op) |];
      depth = 2;
      ops = 1;
    }
  in
  fun a b ->
    let inputs = [| a; b |] in
    run ~dtype:Dtype.Bool ~truncate:false ~out_shape:(broadcast_shape inputs)
      prog inputs

let select_prog =
  { steps = [| Arg 0; Arg 1; Arg 2; Sel |]; depth = 3; ops = 1 }

let select cond a b =
  let inputs = [| cond; a; b |] in
  run ~dtype:(Tensor.dtype a) ~truncate:false
    ~out_shape:(broadcast_shape inputs) select_prog inputs

let identity_prog = { steps = [| Arg 0 |]; depth = 1; ops = 0 }

let broadcast_to t target =
  if not (Shape.equal (Shape.broadcast (Tensor.shape t) target) target) then
    invalid_arg "Fused_eval.broadcast_to: not broadcastable to target";
  run ~dtype:(Tensor.dtype t) ~truncate:false ~out_shape:target identity_prog
    [| t |]
