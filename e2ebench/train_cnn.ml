(* train_cnn: synchronous training of the examples/mnist_cnn.ml convnet
   (12x12x1 input, conv8-pool-conv16-pool-fc32, Adam) at batch 32 on
   synthetic batches fed directly, in a closed loop. Kernel-bound: it
   shows kernel, allocation and buffer-pool changes. *)

open Octf_tensor
module B = Octf.Builder
module S = Octf.Session
module Vs = Octf_nn.Var_store
module L = Octf_nn.Layers

let image_size = 12
let classes = 4
let batch = 32
let setups = 201
let distinct_batches = 16

type model = {
  session : S.t;
  pixels : B.output;
  labels : B.output;
  loss : B.output;
  train_op : B.output;
}

let build_graph ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let pixels =
    B.placeholder b ~name:"pixels"
      ~shape:[| batch; image_size; image_size; 1 |]
      Dtype.F32
  in
  let labels = B.placeholder b ~name:"labels" ~shape:[| batch |] Dtype.I32 in
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
    L.dense store ~activation:`Relu ~name:"fc1" ~in_dim:(side * side * 16)
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
  (b, pixels, labels, loss, train_op, Vs.init_op store)

(* Contraction layers as (rows, k, n); see Probe.training_gflop. *)
let contraction_layers =
  let side = image_size / 4 in
  [
    (batch * image_size * image_size, 9, 8);
    (batch * (image_size / 2) * (image_size / 2), 9 * 8, 16);
    (batch, side * side * 16, 32);
    (batch, 32, classes);
  ]

let compile_times = ref []

(* Graph build to the first ready step: build, session, variable
   initialisation and compilation of the training step. *)
let setup ~seed ~parent =
  let sp name f = Spans.span ~parent name (fun _ -> f ()) in
  let b, pixels, labels, loss, train_op, init =
    sp "graph.build" (fun () -> build_graph ~seed)
  in
  let session = sp "session.create" (fun () -> S.create (B.graph b)) in
  sp "session.init" (fun () -> S.run_unit session [ init ]);
  let t0 = Stats.now () in
  sp "session.precompile" (fun () ->
      S.precompile ~feeds:[ pixels; labels ] ~targets:[ train_op ] session
        [ loss ]);
  compile_times := (Stats.now () -. t0) :: !compile_times;
  { session; pixels; labels; loss; train_op }

let batches ~seed =
  let rng = Rng.create seed in
  Array.init distinct_batches (fun _ ->
      Octf_data.Synthetic.image_batch rng ~batch ~size:image_size ~channels:1
        ~classes)

let step m data i ~collect =
  let d = data.(i mod distinct_batches) in
  let feeds =
    [
      (m.pixels, d.Octf_data.Synthetic.pixels);
      (m.labels, d.Octf_data.Synthetic.labels);
    ]
  in
  let options = Training.step_options ~feeds ~targets:[ m.train_op ] ~collect in
  match S.run_with_metadata ~options m.session [ m.loss ] with
  | [ l ], md -> (Tensor.flat_get_f l 0, md)
  | _ -> failwith "train_cnn: expected one fetch"

let run ~seed ~seconds ~traced =
  let v = Schema.create () in
  let data = batches ~seed in
  let setup_times, m =
    Training.repeated_setup ~count:setups ~setup:(setup ~seed) ~discard:ignore
  in
  (* Output check: the first [check_steps] steps against a fresh
     same-seed reference session. *)
  let reference = setup ~seed ~parent:(-1) in
  let ref_loss = ref 0.0 in
  for i = 0 to Training.check_steps - 1 do
    ref_loss := fst (step reference data i ~collect:false)
  done;
  let first_loss = ref 0.0 and last_loss = ref 0.0 in
  for i = 0 to Training.check_steps - 1 do
    let l, _ = step m data i ~collect:false in
    if i = 0 then first_loss := l;
    last_loss := l
  done;
  let checks =
    [
      ( "train_cnn loss equals same-seed reference",
        Int64.bits_of_float !last_loss = Int64.bits_of_float !ref_loss );
      ("train_cnn loss fell below the step-1 loss", !last_loss < !first_loss);
    ]
  in
  Printf.printf "loss step 1 %.6f, step %d %.6f (reference %.6f)\n" !first_loss
    Training.check_steps !last_loss !ref_loss;
  (* Peak RSS after a fixed amount of work: the first [min_samples]
     timed steps. *)
  let rss_kb = ref 0.0 in
  let p =
    Training.timed_phase
      ~at_min_steps:(fun () -> rss_kb := Probe.vmhwm_kb ())
      ~seconds ~min_steps:Training.min_samples ~traced
      (fun i ~collect -> snd (step m data (Training.check_steps + i) ~collect))
  in
  if not traced then
    Training.set_end_to_end v ~setup_times ~batch
      ~peak_rss_mb:(!rss_kb /. 1024.0)
      p
  else begin
    let wall_ms, kernel_ms, _ =
      Training.set_traced v p ~gflop:(Probe.training_gflop contraction_layers)
    in
    Printf.printf "traced step wall %.3f ms, kernels %.3f ms (%.1f%%)\n" wall_ms
      kernel_ms (100.0 *. kernel_ms /. wall_ms);
    Schema.set v "session.compile_ms"
      (Probe.ms (Stats.median (Array.of_list !compile_times)));
    (* A session's compile rewrites its graph; probe a fresh build. *)
    let b, pixels, labels, loss, train_op, _ = build_graph ~seed in
    Probe.compile_path v ~graph:(B.graph b)
      ~passes:Octf.Graph_optimizer.fused_pipeline ~devices:[ Probe.local_cpu ]
      ~feeds:[ pixels; labels ] ~fetches:[ loss ] ~targets:[ train_op ]
  end;
  {
    Schema.checks;
    attempted = (2 * Training.check_steps) + Training.steps p;
    failed_ops = 0;
    values = v;
  }
