(* Accuracy regression for end-to-end quantized inference (§5): a
   briefly-trained MNIST-style CNN and a scaled-down convnet-zoo model
   are frozen, calibrated on representative batches, quantized, and
   must stay within a fixed top-1 delta of their float frozen twins.
   Seeded synthetic data keeps every run deterministic. A serving-path
   leg checks that Serving.infer over the quantized frozen session
   returns exactly what a direct Session.run on it does. *)

open Octf_tensor
open Octf
module B = Builder
module Vs = Octf_nn.Var_store
module L = Octf_nn.Layers
module Serving = Octf_serving.Serving
module Syn = Octf_data.Synthetic

type model = {
  session : Session.t;  (** trained live session *)
  pixels : B.output;
  logits : B.output;
  calibrate : B.output list;  (** interior activations worth observing *)
  image_size : int;
  classes : int;
}

(* The serve-CLI MNIST-style CNN: two conv/pool blocks and two dense
   layers over small synthetic images. *)
let mnist_cnn ~train_steps =
  let classes = 4 and image_size = 12 and batch = 16 in
  let b = B.create () in
  let store = Vs.create b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:8 ~ksize:(3, 3) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:8
      ~out_channels:16 ~ksize:(3, 3) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  let side = image_size / 4 in
  let flat = L.flatten b ~features:(side * side * 16) pool2 in
  let hidden =
    L.dense store ~activation:`Relu ~name:"fc1"
      ~in_dim:(side * side * 16)
      ~out_dim:32 flat
  in
  let logits = L.dense store ~name:"logits" ~in_dim:32 ~out_dim:classes hidden in
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op =
    Octf_train.Optimizer.minimize store
      ~algorithm:Octf_train.Optimizer.adam_default ~lr:0.003 ~loss ()
  in
  let session = Session.create (B.graph b) in
  Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 5 in
  for _ = 1 to train_steps do
    let imgs = Syn.image_batch rng ~batch ~size:image_size ~channels:1 ~classes in
    Session.run_unit
      ~feeds:[ (pixels, imgs.Syn.pixels); (labels, imgs.Syn.labels) ]
      session [ train_op ]
  done;
  {
    session;
    pixels;
    logits;
    calibrate = [ conv1; conv2; hidden ];
    image_size;
    classes;
  }

(* A miniaturized convnet-zoo model: AlexNet's layer sequence
   (Convnet_zoo.alexnet) with channel and feature counts scaled down so
   it trains in a test, instantiated as a real executable graph. *)
let alexnet_mini ~train_steps =
  let classes = 4 and image_size = 16 and batch = 16 in
  let spec = Octf_models.Convnet_zoo.alexnet in
  let b = B.create () in
  let store = Vs.create b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let labels = B.placeholder b ~name:"labels" Dtype.I32 in
  (* walk the published layer list, scaling channels by 1/32 (floor 4)
     and replacing the 224x224 geometry with a 16x16 one; pools shrink
     the image and the final Fc layers become small dense layers *)
  let scale c = max 4 (c / 32) in
  let x = ref pixels and in_c = ref 1 and side = ref image_size in
  let conv_i = ref 0 and pool_budget = ref 2 in
  let calibrate = ref [] in
  List.iter
    (fun layer ->
      match layer with
      | Octf_models.Convnet_zoo.Conv { out_c; _ } ->
          incr conv_i;
          let out_channels = scale out_c in
          let o =
            L.conv2d store ~activation:`Relu
              ~name:(Printf.sprintf "conv%d" !conv_i)
              ~in_channels:!in_c ~out_channels ~ksize:(3, 3) !x
          in
          calibrate := o :: !calibrate;
          x := o;
          in_c := out_channels
      | Octf_models.Convnet_zoo.Pool _ when !pool_budget > 0 ->
          decr pool_budget;
          x := L.max_pool2d b ~ksize:(2, 2) !x;
          side := !side / 2
      | Octf_models.Convnet_zoo.Pool _ | Octf_models.Convnet_zoo.Fc _ -> ())
    spec.Octf_models.Convnet_zoo.layers;
  let flat = L.flatten b ~features:(!side * !side * !in_c) !x in
  (* AlexNet's three Fc layers, scaled: 4096 -> 32, 1000 -> classes *)
  let fc1 =
    L.dense store ~activation:`Relu ~name:"fc1"
      ~in_dim:(!side * !side * !in_c)
      ~out_dim:32 flat
  in
  let fc2 = L.dense store ~activation:`Relu ~name:"fc2" ~in_dim:32 ~out_dim:32 fc1 in
  let logits = L.dense store ~name:"logits" ~in_dim:32 ~out_dim:classes fc2 in
  calibrate := fc1 :: fc2 :: !calibrate;
  let loss =
    Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
      ~logits ~labels
  in
  let train_op =
    Octf_train.Optimizer.minimize store
      ~algorithm:Octf_train.Optimizer.adam_default ~lr:0.003 ~loss ()
  in
  let session = Session.create (B.graph b) in
  Session.run_unit session [ Vs.init_op store ];
  let rng = Rng.create 6 in
  for _ = 1 to train_steps do
    let imgs = Syn.image_batch rng ~batch ~size:image_size ~channels:1 ~classes in
    Session.run_unit
      ~feeds:[ (pixels, imgs.Syn.pixels); (labels, imgs.Syn.labels) ]
      session [ train_op ]
  done;
  {
    session;
    pixels;
    logits;
    calibrate = List.rev !calibrate;
    image_size;
    classes;
  }

(* count [op] in the live subgraph behind [fetch] *)
let count_ops session (fetch : B.output) op =
  let graph = Session.graph session in
  let seen = Hashtbl.create 16 in
  let n = ref 0 in
  let rec walk id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let node = Graph.get graph id in
      if node.Node.op_type = op then incr n;
      Array.iter
        (fun (e : Node.endpoint) -> walk e.Node.node_id)
        node.Node.inputs;
      List.iter walk node.Node.control_inputs
    end
  in
  walk fetch.B.node.Node.id;
  !n

let argmax_row t ~row ~cols =
  let best = ref 0 in
  for j = 1 to cols - 1 do
    if Tensor.flat_get_f t ((row * cols) + j)
       > Tensor.flat_get_f t ((row * cols) + !best)
    then best := j
  done;
  !best

(* Freeze a float twin and a calibrated quantized twin, run both over a
   held-out batch, and compare top-1 agreement. *)
let check_top1_delta ~name ~max_delta ~eval_batch m =
  let float_frozen =
    Serving.freeze_session
      ~config:(Session.Config.v ~quantize:false ())
      ~inputs:[ m.pixels ] ~outputs:[ m.logits ] m.session
  in
  (* calibrate on the float frozen graph with representative batches *)
  let cal = Quant_calibration.create () in
  let rng = Rng.create 17 in
  for _ = 1 to 8 do
    let imgs =
      Syn.image_batch rng ~batch:16 ~size:m.image_size ~channels:1
        ~classes:m.classes
    in
    Quant_calibration.observe_step cal float_frozen
      ~feeds:[ (m.pixels, imgs.Syn.pixels) ]
      m.calibrate
  done;
  let quant_frozen =
    Serving.freeze_session
      ~config:(Session.Config.v ~quantize:true ())
      ~ranges:(Quant_calibration.ranges cal)
      ~inputs:[ m.pixels ] ~outputs:[ m.logits ] m.session
  in
  (* the mechanism, not just the outcome: calibrated codes-out islands
     exist in the served subgraph, and the fetched logits stay float *)
  let q_islands =
    count_ops quant_frozen m.logits "QuantizedConv2DQ"
    + count_ops quant_frozen m.logits "QuantizedMatMulQ"
  in
  if q_islands < 2 then
    Alcotest.failf "%s: only %d calibrated islands rewritten" name q_islands;
  (* the fetched logits node itself was never rewritten *)
  let logits_node =
    Graph.get (Session.graph quant_frozen) m.logits.B.node.Node.id
  in
  Alcotest.(check bool)
    (name ^ ": fetched logits stay float")
    false
    (String.length logits_node.Node.op_type >= 9
    && String.sub logits_node.Node.op_type 0 9 = "Quantized");
  let eval =
    Syn.image_batch (Rng.create 23) ~batch:eval_batch ~size:m.image_size
      ~channels:1 ~classes:m.classes
  in
  let run s =
    List.hd (Session.run ~feeds:[ (m.pixels, eval.Syn.pixels) ] s [ m.logits ])
  in
  let fl = run float_frozen and qu = run quant_frozen in
  let agree = ref 0 in
  for row = 0 to eval_batch - 1 do
    if
      argmax_row fl ~row ~cols:m.classes = argmax_row qu ~row ~cols:m.classes
    then incr agree
  done;
  let delta =
    1.0 -. (float_of_int !agree /. float_of_int eval_batch)
  in
  if delta > max_delta then
    Alcotest.failf "%s: quantized top-1 delta %.3f exceeds budget %.3f" name
      delta max_delta;
  (float_frozen, quant_frozen, eval)

let test_mnist_cnn_accuracy () =
  let m = mnist_cnn ~train_steps:30 in
  ignore (check_top1_delta ~name:"mnist-cnn" ~max_delta:0.1 ~eval_batch:64 m)

let test_alexnet_mini_accuracy () =
  let m = alexnet_mini ~train_steps:30 in
  ignore (check_top1_delta ~name:"alexnet-mini" ~max_delta:0.1 ~eval_batch:64 m)

(* Serving a quantized frozen graph: infer must return exactly what a
   direct Session.run over the same frozen session does — the batcher
   stacks and slices around the very same deterministic kernels. *)
let test_serving_quantized_path () =
  let m = mnist_cnn ~train_steps:10 in
  let cal = Quant_calibration.create () in
  let rng = Rng.create 29 in
  for _ = 1 to 4 do
    let imgs =
      Syn.image_batch rng ~batch:16 ~size:m.image_size ~channels:1
        ~classes:m.classes
    in
    Quant_calibration.observe_step cal m.session
      ~feeds:[ (m.pixels, imgs.Syn.pixels) ]
      m.calibrate
  done;
  let quant_frozen =
    Serving.freeze_session
      ~config:(Session.Config.v ~quantize:true ())
      ~ranges:(Quant_calibration.ranges cal)
      ~inputs:[ m.pixels ] ~outputs:[ m.logits ] m.session
  in
  let server =
    Serving.create ~name:"quant-test" ~max_batch_size:4 ~max_queue_delay:0.001
      ~session:quant_frozen ~inputs:[ m.pixels ] ~outputs:[ m.logits ] ()
  in
  Fun.protect ~finally:(fun () -> Serving.shutdown server) @@ fun () ->
  let imgs =
    Syn.image_batch (Rng.create 31) ~batch:1 ~size:m.image_size ~channels:1
      ~classes:m.classes
  in
  let image =
    Tensor.reshape imgs.Syn.pixels [| m.image_size; m.image_size; 1 |]
  in
  let direct =
    List.hd
      (Session.run
         ~feeds:[ (m.pixels, imgs.Syn.pixels) ]
         quant_frozen [ m.logits ])
  in
  match Serving.infer server [ image ] with
  | Ok [ served ] ->
      (* served is [classes], direct is [1; classes]: same numbers *)
      Alcotest.(check int) "logit count" (Tensor.numel direct)
        (Tensor.numel served);
      for j = 0 to Tensor.numel direct - 1 do
        Alcotest.(check (float 0.0)) "bit-identical logit"
          (Tensor.flat_get_f direct j)
          (Tensor.flat_get_f served j)
      done
  | Ok _ -> Alcotest.fail "arity"
  | Error f -> Alcotest.failf "infer failed: %s" (Step_failure.cause_message f.Step_failure.cause)

let suite =
  [
    Alcotest.test_case "mnist-cnn quantized top-1 delta" `Quick
      test_mnist_cnn_accuracy;
    Alcotest.test_case "alexnet-mini quantized top-1 delta" `Quick
      test_alexnet_mini_accuracy;
    Alcotest.test_case "serving path over quantized graph" `Quick
      test_serving_quantized_path;
  ]
