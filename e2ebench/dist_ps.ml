(* dist_ps: two OS processes over loopback TCP (lib/net). The ps task
   (this binary re-executed with --ps-child) holds the weights of a
   64-128-128-10 MLP; the chief runs forward/backward at batch 32 in a
   closed loop. The only workload that uses the rendezvous and net
   layers; its small kernels make the rest of the step visible. *)

open Octf_tensor
module B = Octf.Builder
module S = Octf.Session
module Vs = Octf_nn.Var_store
module Runtime = Octf_net.Runtime

let batch = 32
(* Set-ups per run: each spawns and reaps a ps task. *)
let setups = 101
let dims = [ 64; 128; 128; 10 ]
let classes = 10
let distinct_batches = 16
let ps = "/job:ps/task:0"
let worker = "/job:worker/task:0"

type model = {
  b : B.t;
  x : B.output;
  labels : B.output;
  loss : B.output;
  train_op : B.output;
  init : B.output;
  weights : B.output list;  (** reads of every variable, in order *)
  shapes : Shape.t list;
}

(* The one graph both processes build, init op included: node ids,
   placement and step signatures then agree across the processes. *)
let build_graph ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let x, labels =
    B.with_device b worker (fun () ->
        ( B.placeholder b ~name:"x" ~shape:[| batch; List.hd dims |] Dtype.F32,
          B.placeholder b ~name:"labels" ~shape:[| batch |] Dtype.I32 ))
  in
  let rec layers k h = function
    | din :: (dout :: _ as rest) ->
        let w =
          Vs.get store ~device:ps ~name:(Printf.sprintf "fc%d/w" k) [| din; dout |]
        in
        let bias =
          Vs.get store ~device:ps ~init:Octf_nn.Init.zeros
            ~name:(Printf.sprintf "fc%d/b" k) [| dout |]
        in
        let z =
          B.with_device b worker (fun () ->
              let z = B.add b (B.matmul b h w.Vs.read) bias.Vs.read in
              match rest with [ _ ] -> z | _ -> B.relu b z)
        in
        layers (k + 1) z rest
    | _ -> h
  in
  let logits = layers 1 x dims in
  let loss =
    B.with_device b worker (fun () ->
        Octf_nn.Losses.sparse_softmax_cross_entropy_mean b ~num_classes:classes
          ~logits ~labels)
  in
  let train_op = Octf_train.Optimizer.minimize store ~lr:0.05 ~loss () in
  let init = Vs.init_op store in
  let vars = Vs.all store in
  {
    b;
    x;
    labels;
    loss;
    train_op;
    init;
    weights = List.map (fun (v : Vs.variable) -> v.Vs.read) vars;
    shapes = List.map (fun (v : Vs.variable) -> v.Vs.shape) vars;
  }

let contraction_layers =
  let rec go = function
    | din :: (dout :: _ as rest) -> (batch, din, dout) :: go rest
    | _ -> []
  in
  go dims

let cluster () =
  Octf.Cluster.create
    ~jobs:[ ("ps", 1, [ Octf.Device.CPU ]); ("worker", 1, [ Octf.Device.CPU ]) ]

let parse_cluster spec =
  match Runtime.parse_cluster spec with Ok e -> e | Error m -> failwith m

let distributed_session rt m =
  Octf.Cluster.session (cluster ())
    ~config:(S.Config.v ~remote:(Runtime.runner rt) ())
    (B.graph m.b)

(* ---- the ps task ---- *)

(* Lines of the ps task's shutdown report the chief reads back. *)
let kernel_seconds = "kernel_seconds"
let steps_served = "steps_served"

(* Serve the ps task until the chief closes our stdin, then report
   VmHWM, its kernel seconds and steps served, and a metrics snapshot
   on stdout. A watchdog bounds the child's life if the chief never
   does. *)
let child ~cluster:spec ~seed ~traced =
  if traced then Octf.Metrics.set_kernel_timing true;
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.0;
         prerr_endline "e2ebench ps task: watchdog expired";
         exit 4)
       ());
  let rt =
    Runtime.create
      (Runtime.config ~job:"ps" ~task:0 ~cluster:(parse_cluster spec) ())
  in
  let m = build_graph ~seed in
  Runtime.serve rt ~session:(distributed_session rt m);
  print_string "ready\n";
  flush stdout;
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Printf.printf "VmHWM: %.0f kB\n%s: %.17g\n%s: %.17g\n%s\n%!"
    (Probe.vmhwm_kb ()) kernel_seconds
    (Probe.metric "octf_executor_op_seconds_total")
    steps_served
    (Probe.metric "octf_net_steps_served_total")
    (Octf.Metrics.to_json Octf.Metrics.default);
  exit 0

(* The number on the "[name]: <number>" line of the ps task's report;
   0 when absent. *)
let report_value report name =
  let prefix = name ^ ": " in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        float_of_string_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    (String.split_on_char '\n' report)
  |> Option.value ~default:0.0

(* ---- the chief ---- *)

type chief = {
  child : Proc.child;
  rt : Runtime.t;
  m : model;
  session : S.t;
}

let compile_times = ref []

(* Child spawn and connect, graph build, session, variable
   initialisation on the ps task, and compilation of the training
   step. *)
let setup ~seed ~traced ~parent =
  let sp name f = Spans.span ~parent name (fun _ -> f ()) in
  let rec ports () =
    let a = Proc.free_port () and b = Proc.free_port () in
    if a = b then ports () else (a, b)
  in
  let ps_port, worker_port = ports () in
  let spec = Printf.sprintf "ps=127.0.0.1:%d,worker=127.0.0.1:%d" ps_port worker_port in
  let child =
    sp "dist.spawn" (fun () ->
        Proc.spawn
          [|
            Sys.executable_name; "--ps-child"; spec; "--seed"; string_of_int seed;
            "--trace"; (if traced then "1" else "0");
          |]
          ~timeout:30.0)
  in
  let rt =
    sp "net.runtime" (fun () ->
        Runtime.create
          (Runtime.config ~job:"worker" ~task:0 ~cluster:(parse_cluster spec) ()))
  in
  let m = sp "graph.build" (fun () -> build_graph ~seed) in
  let session = sp "session.create" (fun () -> distributed_session rt m) in
  Runtime.serve rt ~session;
  sp "session.init" (fun () -> S.run_unit session [ m.init ]);
  let t0 = Stats.now () in
  sp "session.precompile" (fun () ->
      S.precompile ~feeds:[ m.x; m.labels ] ~targets:[ m.train_op ] session [ m.loss ]);
  compile_times := (Stats.now () -. t0) :: !compile_times;
  { child; rt; m; session }

(* Stop the chief's runtime, then the ps task; return its report. *)
let teardown c =
  Runtime.shutdown c.rt;
  Proc.reap c.child ~timeout:10.0

let batches ~seed =
  let rng = Rng.create seed in
  Array.init distinct_batches (fun _ ->
      ( Tensor.normal rng [| batch; List.hd dims |] ~mean:0.0 ~stddev:1.0,
        Tensor.of_int_array ~dtype:Dtype.I32 [| batch |]
          (Array.init batch (fun _ -> Rng.int rng classes)) ))

let step session m data i ~collect =
  let x, y = data.(i mod distinct_batches) in
  let options =
    Training.step_options
      ~feeds:[ (m.x, x); (m.labels, y) ]
      ~targets:[ m.train_op ] ~collect
  in
  snd (S.run_with_metadata ~options session [ m.loss ])

(* The plain baseline: the same graph, seed and steps in one process. *)
let in_process_weights ~seed data =
  let m = build_graph ~seed in
  let session = Octf.Cluster.session (cluster ()) (B.graph m.b) in
  S.run_unit session [ m.init ];
  for i = 0 to Training.check_steps - 1 do
    ignore (step session m data i ~collect:false)
  done;
  S.run session m.weights

(* Wire cost of one step's cross-process tensors — every variable read
   goes out and its gradient comes back — through Wire and Frame. *)
let wire_probe v m =
  let rng = Rng.create 3 in
  let tensors =
    List.concat_map
      (fun shape ->
        let t = Tensor.normal rng shape ~mean:0.0 ~stddev:1.0 in
        [ t; t ])
      m.shapes
  in
  let encode t =
    let b = Buffer.create 4096 in
    Octf_net.Wire.put_tensor b t;
    Octf_net.Frame.encode (Octf_net.Frame.v Octf_net.Frame.Tensor (Buffer.contents b))
  in
  let decode s =
    match Octf_net.Frame.decode s with
    | Ok f -> Octf_net.Wire.get_tensor (Octf_net.Wire.reader f.Octf_net.Frame.payload)
    | Error _ -> failwith "wire probe: frame did not decode"
  in
  let frames = List.map encode tensors in
  let time f =
    Stats.median
      (Array.init 50 (fun _ ->
           let t0 = Stats.now () in
           f ();
           Stats.now () -. t0))
  in
  let each f xs () = List.iter (fun x -> ignore (f x)) xs in
  Schema.set v "wire.encode_us_per_step" (1e6 *. time (each encode tensors));
  Schema.set v "wire.decode_us_per_step" (1e6 *. time (each decode frames))

let run ~seed ~seconds ~traced =
  let v = Schema.create () in
  let data = batches ~seed in
  let setup_times, c =
    Training.repeated_setup ~count:setups ~setup:(setup ~seed ~traced) ~discard:(fun c ->
        ignore (teardown c))
  in
  let report = ref None in
  let stop () =
    match !report with
    | Some r -> r
    | None ->
        let r = teardown c in
        report := Some r;
        r
  in
  Fun.protect ~finally:(fun () -> ignore (stop ())) @@ fun () ->
  for i = 0 to Training.check_steps - 1 do
    ignore (step c.session c.m data i ~collect:false)
  done;
  let distributed = S.run c.session c.m.weights in
  let reference = in_process_weights ~seed data in
  let checks =
    [
      ( "dist_ps weights equal the in-process run",
        List.length distributed = List.length reference
        && List.for_all2
             (fun a b -> Training.bits a = Training.bits b)
             distributed reference );
    ]
  in
  (* Peak RSS of both processes after a fixed amount of work: the
     first [min_samples] timed steps. *)
  let rss_kb = ref 0.0 in
  let read_rss () =
    let chief = Probe.vmhwm_kb ()
    and ps =
      Probe.vmhwm_kb_of_status
        (Probe.read_file (Printf.sprintf "/proc/%d/status" c.child.Proc.pid))
    in
    Printf.printf "VmHWM after %d timed steps: chief %.1f MB, ps task %.1f MB\n"
      Training.min_samples (chief /. 1024.0) (ps /. 1024.0);
    rss_kb := chief +. ps
  in
  let p =
    Training.timed_phase ~at_min_steps:read_rss ~seconds
      ~min_steps:Training.min_samples ~traced
      (fun i ~collect -> step c.session c.m data (Training.check_steps + i) ~collect)
  in
  let child_report = stop () in
  if not traced then begin
    Printf.printf "ps task VmHWM at exit %.1f MB\n"
      (Probe.vmhwm_kb_of_status child_report /. 1024.0);
    Training.set_end_to_end v ~setup_times ~batch ~peak_rss_mb:(!rss_kb /. 1024.0) p
  end
  else begin
    let wall_ms, kernel_ms, op_ms =
      Training.set_traced v p ~gflop:(Probe.training_gflop contraction_layers)
    in
    let ps_kernel_s = report_value child_report kernel_seconds in
    let ps_steps = report_value child_report steps_served in
    Schema.set v "ps.kernel_ms_per_step" (Probe.ms ps_kernel_s /. Float.max 1.0 ps_steps);
    Schema.set v "net.send_ms_per_step" (op_ms "Send");
    Schema.set v "net.wait_ms_per_step" (wall_ms -. kernel_ms);
    wire_probe v c.m;
    Schema.set v "session.compile_ms"
      (Probe.ms (Stats.median (Array.of_list !compile_times)));
    let fresh = build_graph ~seed in
    Probe.compile_path v ~graph:(B.graph fresh.b)
      ~passes:Octf.Graph_optimizer.fused_pipeline
      ~devices:(Octf.Cluster.devices (cluster ()))
      ~feeds:[ fresh.x; fresh.labels ] ~fetches:[ fresh.loss ]
      ~targets:[ fresh.train_op ];
    Printf.printf "traced step wall %.3f ms, chief kernels %.3f ms\n" wall_ms kernel_ms
  end;
  {
    Schema.checks;
    attempted = (2 * Training.check_steps) + Training.steps p;
    failed_ops = 0;
    values = v;
  }
