(** The elementwise engine.

    Every elementwise evaluation runs here: a standalone kernel such as
    [Add] is the one-op expression over its inputs ({!unary},
    {!binary}), and a [FusedElementwise] node (the optimizer's Fuse
    pass) runs {!eval} on the {!of_postfix} of its "expr" attribute.
    Comparisons, {!select} and {!broadcast_to} read their operands
    through the same broadcast loader. Each op's scalar formula is
    written once, so fused and unfused execution are bit-identical by
    construction.

    Arithmetic requires one dtype across inputs, which is the result's.
    For a non-float dtype each op's result truncates through
    [int_of_float]. [?out] accepts the executor's in-place grant, which
    may alias any input (ignored unless its length matches the output,
    or when the result is not float). Results are bit-identical for
    every intra-op thread count. *)

type expr =
  | Input of int  (** [Input k]: the fused node's k-th data input *)
  | Unary of string * expr  (** graph op_type, e.g. ["Neg"], ["Tanh"] *)
  | Binary of string * expr * expr  (** e.g. ["Add"], ["ReluGrad"] *)

val unary_op_names : string list
(** The fusable unaries: Neg, Abs, Sign, Exp, Log, Sqrt, Square,
    Reciprocal, Relu, Sigmoid, Tanh. Each is also a standalone kernel
    of the same op_type. *)

val binary_op_names : string list
(** The fusable binaries: Add, Sub, Mul, Div, Pow, Mod (floor-mod: the
    result has the divisor's sign), Maximum, Minimum, ReluGrad
    ([ReluGrad dy x] is [dy] where [x > 0], else [0]). *)

val is_unary : string -> bool
val is_binary : string -> bool

val num_inputs : expr -> int
(** [1 + ] the highest input index referenced. *)

val op_count : expr -> int
(** Number of operation nodes in the expression (the fused group's
    original size, minus any absorbed AddN arity adjustments). *)

val to_postfix : expr -> string list
(** Serialize to postfix tokens: ["in<k>"] for inputs, the op_type for
    operations. *)

val of_postfix : string list -> expr
(** @raise Invalid_argument on unknown tokens or stack mismatch. *)

val eval : ?out:float array -> expr -> Tensor.t array -> Tensor.t
(** Evaluate over the inputs' broadcast shape in one sharded pass.
    @raise Invalid_argument on missing inputs, an unknown op or a dtype
    mismatch. *)

val unary : string -> ?out:float array -> Tensor.t -> Tensor.t
(** [unary op] is [eval (Unary (op, Input 0))], compiled once at
    partial application. *)

val binary : string -> ?out:float array -> Tensor.t -> Tensor.t -> Tensor.t
(** [binary op] is [eval (Binary (op, Input 0, Input 1))], compiled
    once at partial application; operands broadcast numpy-style. *)

val comparison : string -> Tensor.t -> Tensor.t -> Tensor.t
(** [comparison op a b] for [op] one of Equal, Less, Greater,
    GreaterEqual: a broadcasting comparison producing a [Bool]
    tensor. *)

val select : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [select cond a b]: elementwise [if cond then a else b] at [a]'s
    dtype; [cond] is non-zero for true, and all three broadcast. *)

val broadcast_to : Tensor.t -> Shape.t -> Tensor.t
(** Materialize [t] broadcast to a target shape.
    @raise Invalid_argument if [t] does not broadcast to exactly the
    target. *)
