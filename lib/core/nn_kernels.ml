(* Neural-network kernels: convolution, pooling, softmax. The
   elementwise activations (Relu, Sigmoid, Tanh, ReluGrad) are
   elementwise-engine ops, registered with the others in Math_kernels.
   The fused SoftmaxCrossEntropy kernel mirrors the hand-implemented
   fused kernels the paper describes for performance-critical operations
   (§5): output 0 is the per-example loss, output 1 the cached backprop
   (softmax - labels) consumed by the gradient graph. *)

open Octf_tensor
module K = Kernel

let t v = Value.Tensor v

let padding_of_node node =
  match Node.attr_string node "padding" with
  | "SAME" -> Tensor_ops.Same
  | "VALID" -> Tensor_ops.Valid
  | s -> invalid_arg ("padding attribute must be SAME or VALID, got " ^ s)

let pair_of_ints name = function
  | [ a; b ] -> (a, b)
  | _ -> invalid_arg (name ^ ": expected a list of two ints")

let strides_of node = pair_of_ints "strides" (Node.attr_ints node "strides")

let ksize_of node = pair_of_ints "ksize" (Node.attr_ints node "ksize")

let unary name f =
  K.register ~op_type:name (fun ctx -> K.one (t (f (K.input_tensor ctx 0))))

let register () =
  unary "Softmax" Tensor_ops.softmax;
  unary "LogSoftmax" Tensor_ops.log_softmax;
  K.register ~op_type:"SoftmaxCrossEntropy" (fun ctx ->
      let logits = K.input_tensor ctx 0 and labels = K.input_tensor ctx 1 in
      let loss = Tensor_ops.softmax_cross_entropy ~logits ~labels in
      let backprop = Tensor_ops.softmax_cross_entropy_grad ~logits ~labels in
      [| t loss; t backprop |]);
  K.register ~op_type:"Conv2D" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.conv2d (K.input_tensor ctx 0) (K.input_tensor ctx 1)
              ~strides ~padding)));
  K.register ~op_type:"Conv2DGradInput" (fun ctx ->
      (* Inputs: input (for its shape), filter, dy. *)
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      let input_shape = Tensor.shape (K.input_tensor ctx 0) in
      K.one
        (t
           (Tensor_ops.conv2d_grad_input ~input_shape (K.input_tensor ctx 1)
              (K.input_tensor ctx 2) ~strides ~padding)));
  K.register ~op_type:"Conv2DGradFilter" (fun ctx ->
      (* Inputs: input, filter (for its shape), dy. *)
      let strides = strides_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      let filter_shape = Tensor.shape (K.input_tensor ctx 1) in
      K.one
        (t
           (Tensor_ops.conv2d_grad_filter ~filter_shape (K.input_tensor ctx 0)
              (K.input_tensor ctx 2) ~strides ~padding)));
  K.register ~op_type:"MaxPool" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one (t (Tensor_ops.max_pool (K.input_tensor ctx 0) ~ksize ~strides ~padding)));
  K.register ~op_type:"MaxPoolGrad" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one
        (t
           (Tensor_ops.max_pool_grad (K.input_tensor ctx 0)
              (K.input_tensor ctx 1) ~ksize ~strides ~padding)));
  K.register ~op_type:"AvgPool" (fun ctx ->
      let strides = strides_of ctx.K.node in
      let ksize = ksize_of ctx.K.node in
      let padding = padding_of_node ctx.K.node in
      K.one (t (Tensor_ops.avg_pool (K.input_tensor ctx 0) ~ksize ~strides ~padding)))
