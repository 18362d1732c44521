(* serve_cnn: the serving bench's miniature 6x6 convnet, frozen with
   Serving.freeze_session and served by Serving.create (max batch 32),
   under open-loop Poisson load in fixed rungs of 4k, 8k, 16k and 32k
   requests per second, then a saturating window of requests that
   measures the server's capacity. A batch runs in well under a
   millisecond, so latency here is batcher, queue and dispatch time. *)

open Octf_tensor
module B = Octf.Builder
module S = Octf.Session
module Vs = Octf_nn.Var_store
module L = Octf_nn.Layers
module Serving = Octf_serving.Serving

let image_size = 6
let classes = 4
let max_batch = 32
(* Set-ups per run: one costs about a millisecond, and the host's
   speed drifts over a second or so, so the set-ups span a few seconds. *)
let setups = 1001

(* Each rung's rate and its share of the run; the saturation phase
   gets the rest. The reported figures come from the latency rung and
   the saturation phase, so they get most of the run; the other rungs
   only complete the printed SLO ladder. *)
let rungs = [ (4000.0, 0.05); (8000.0, 0.5); (16000.0, 0.05); (32000.0, 0.05) ]
let saturation_share = 0.35

(* Requests in flight during saturation: eight full batches, so at
   least four are always queued behind the one running. *)
let saturation_window = 8 * max_batch
let latency_rung = 8000.0
let top_rung = 32000.0
let slo_ms = 20.0
let distinct_examples = 64
let checked_per_rung = 16

(* Admission never sheds: overload shows as a growing backlog. *)
let queue_capacity = 1 lsl 20

let build_graph ~seed =
  let b = B.create () in
  let store = Vs.create ~seed b in
  let pixels = B.placeholder b ~name:"pixels" Dtype.F32 in
  let conv1 =
    L.conv2d store ~activation:`Relu ~name:"conv1" ~in_channels:1
      ~out_channels:2 ~ksize:(3, 3) pixels
  in
  let pool1 = L.max_pool2d b ~ksize:(2, 2) conv1 in
  let conv2 =
    L.conv2d store ~activation:`Relu ~name:"conv2" ~in_channels:2
      ~out_channels:4 ~ksize:(3, 3) pool1
  in
  let pool2 = L.max_pool2d b ~ksize:(2, 2) conv2 in
  let conv3 =
    L.conv2d store ~activation:`Relu ~name:"conv3" ~in_channels:4
      ~out_channels:8 ~ksize:(1, 1) pool2
  in
  let flat = L.flatten b ~features:8 conv3 in
  let hidden = L.dense store ~activation:`Relu ~name:"fc1" ~in_dim:8 ~out_dim:16 flat in
  let logits = L.dense store ~name:"logits" ~in_dim:16 ~out_dim:classes hidden in
  (b, pixels, logits, Vs.init_op store)

(* Contraction layers of one example as (rows, k, n): 6x6 -> pool 3x3
   -> pool 1x1. *)
let contraction_layers ~batch =
  [
    (batch * 36, 9, 2);
    (batch * 9, 9 * 2, 4);
    (batch, 4, 8);
    (batch, 8, 16);
    (batch, 16, classes);
  ]

type served = {
  server : Serving.t;
  frozen : S.t;
  training : S.t;
  pixels : B.output;
  logits : B.output;
}

(* Graph build to the first ready request: build, session, variable
   initialisation, freeze (which compiles the inference step) and
   server start. *)
let setup ~seed ~parent =
  let sp name f = Spans.span ~parent name (fun _ -> f ()) in
  let b, pixels, logits, init = sp "graph.build" (fun () -> build_graph ~seed) in
  let training = sp "session.create" (fun () -> S.create (B.graph b)) in
  sp "session.init" (fun () -> S.run_unit training [ init ]);
  let frozen =
    sp "serving.freeze" (fun () ->
        Serving.freeze_session ~inputs:[ pixels ] ~outputs:[ logits ] training)
  in
  let server =
    sp "serving.create" (fun () ->
        Serving.create ~name:"e2ebench" ~max_batch_size:max_batch
          ~queue_capacity ~session:frozen ~inputs:[ pixels ]
          ~outputs:[ logits ] ())
  in
  { server; frozen; training; pixels; logits }

let examples ~seed =
  let rng = Rng.create seed in
  Array.init distinct_examples (fun _ ->
      let imgs =
        Octf_data.Synthetic.image_batch rng ~batch:1 ~size:image_size
          ~channels:1 ~classes
      in
      Tensor.reshape imgs.Octf_data.Synthetic.pixels
        [| image_size; image_size; 1 |])

type rung = {
  rate : float;
  load : Load.opened;
  shed : int;
  failed : int;
  served : int;
  batches : int;
  depth_max : int;
  depth_halves : float * float;
      (** mean queue depth over the first and second half of the rung *)
  answers : (int * Tensor.t) list;
      (** sampled served answers, with their example's index *)
}

let served_latencies r =
  Array.of_list
    (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list r.load.latency))

let served_rate r =
  float_of_int r.served /. (r.load.finished -. r.load.due.(0))

(* Overload: the queue is deeper in the second half of the rung than in
   the first by more than one full batch. *)
let backlog_growing r =
  let first, second = r.depth_halves in
  second > first +. float_of_int max_batch

(* Length in seconds of the slices of the latency rung's p99. *)
let slice = 1.0

(* The rung's latency tail, printed: the median, over the
   rung's slices by due time, of each slice's p99 (Stats.windowed_p99).
   A stall of the process delays every request queued behind it, a few
   hundred at once, about as many as lie beyond a whole rung's p99; so
   the whole-rung figure counts the stalls that happen to land in a
   run, while the median slice is the p99 of a typical second. *)
let sliced_p99 r =
  let t0 = r.load.due.(0) in
  let count =
    max 1 (int_of_float ((r.load.due.(Array.length r.load.due - 1) -. t0) /. slice))
  in
  let slices = Array.init count (fun _ -> Stats.Samples.create ()) in
  Array.iteri
    (fun i d ->
      let x = r.load.latency.(i) in
      if not (Float.is_nan x) then
        Stats.Samples.push
          slices.(min (count - 1) (int_of_float ((d -. t0) /. slice)))
          x)
    r.load.due;
  let slices = Array.map Stats.Samples.to_array slices in
  let p99 = Stats.windowed_p99 slices in
  Printf.printf
    "rung %6.0f req/s: p99 of a typical %g s slice (median of %d) %.3f ms, \
     smallest slice n=%d\n"
    r.rate slice count (Probe.ms p99)
    (Array.fold_left (fun a w -> min a (Array.length w)) max_int slices);
  p99

let passes_slo r =
  let t = Stats.tail (served_latencies r) in
  r.shed = 0 && r.failed = 0 && (not (backlog_growing r))
  && Probe.ms t.Stats.value <= slo_ms

(* One rung: [duration] seconds of Poisson arrivals at [rate]. *)
let run_rung s ~rng ~examples ~rate ~duration ~traced =
  let offsets = Load.poisson_schedule rng ~rate ~duration in
  let n = Array.length offsets in
  let example_of = Array.init n (fun _ -> Rng.int rng distinct_examples) in
  let sampled = Hashtbl.create 16 in
  Array.iter
    (fun i -> Hashtbl.replace sampled i ())
    (Rng.choose rng ~k:(min checked_per_rung n) ~n);
  let answers = ref [] and shed = ref 0 and failed = ref 0 in
  let span_of = Array.make n (-1) in
  let depths = Stats.Samples.create () in
  (* A traced rung records the spans of every fourth request, which
     keeps the trace file small; the others make the layer calls
     directly. *)
  let traced_req i = traced && i land 3 = 0 in
  let layer i name f =
    if traced_req i then Spans.span ~parent:span_of.(i) ~req:i name (fun _ -> f ())
    else f ()
  in
  let submit i =
    if traced_req i then span_of.(i) <- Spans.fresh ();
    match
      layer i "serving.submit" (fun () ->
          Serving.submit s.server [ examples.(example_of.(i)) ])
    with
    | Ok r -> Some r
    | Error _ ->
        incr shed;
        None
  in
  let complete i r =
    let ok =
      layer i "serving.await" (fun () ->
          match Serving.await r with
          | Ok [ t ] ->
              if Hashtbl.mem sampled i then
                answers := (example_of.(i), t) :: !answers;
              true
          | Ok _ | Error _ -> false)
    in
    if not ok then incr failed;
    ok
  in
  Gc.full_major ();
  let before = Serving.stats s.server in
  let on_wake () =
    Stats.Samples.push depths (float_of_int (Serving.stats s.server).Serving.queue_depth)
  in
  let load = Load.open_loop ~offsets ~submit ~complete ~on_wake in
  Array.iteri
    (fun i d ->
      if traced_req i && not (Float.is_nan load.latency.(i)) then
        Spans.record ~id:span_of.(i) ~req:i "request" d (d +. load.latency.(i)))
    load.due;
  let after = Serving.stats s.server in
  let depths = Stats.Samples.to_array depths in
  let half = Array.length depths / 2 in
  let first_half = Stats.mean (Array.sub depths 0 half)
  and second_half = Stats.mean (Array.sub depths half (Array.length depths - half)) in
  {
    rate;
    load;
    shed = !shed;
    failed = !failed;
    served = after.served - before.served;
    batches = after.batches - before.batches;
    depth_max = int_of_float (Array.fold_left Float.max 0.0 depths);
    depth_halves = (first_half, second_half);
    answers = !answers;
  }

(* A direct run of the frozen session on a batch of examples. *)
let direct s batch_examples ~collect =
  let x =
    Tensor.reshape
      (Tensor.of_float_array
         [| Array.length batch_examples * image_size * image_size |]
         (Array.concat (Array.to_list (Array.map Tensor.to_float_array batch_examples))))
      [| Array.length batch_examples; image_size; image_size; 1 |]
  in
  let options = S.Run_options.v ~feeds:[ (s.pixels, x) ] ~collect_stats:collect () in
  match S.run_with_metadata ~options s.frozen [ s.logits ] with
  | [ y ], md -> (y, md)
  | _ -> failwith "serve_cnn: expected one fetch"

(* Every sampled answer equals a direct batch-1 run on its example. *)
let answers_match s ~examples answers =
  List.for_all
    (fun (e, t) ->
      let y, _ = direct s [| examples.(e) |] ~collect:false in
      Training.bits y = Training.bits t)
    answers

(* The saturation phase: [duration] seconds of a full request window,
   every [checked_every]th answer kept for the output check. *)
let checked_every = 1024

type saturation = {
  served_per_s : float;
  sat_shed : int;
  sat_failed : int;
  sat_attempted : int;
  sat_answers : (int * Tensor.t) list;
}

let run_saturation s ~rng ~examples ~duration =
  let example_of = Array.init 4096 (fun _ -> Rng.int rng distinct_examples) in
  let ex i = example_of.(i land 4095) in
  let shed = ref 0 and failed = ref 0 and answers = ref [] in
  Gc.full_major ();
  let before = Serving.stats s.server in
  let sat =
    Load.saturate ~window:saturation_window ~seconds:duration
      ~submit:(fun i ->
        match Serving.submit s.server [ examples.(ex i) ] with
        | Ok r -> Some r
        | Error _ ->
            incr shed;
            None)
      ~complete:(fun i r ->
        match Serving.await r with
        | Ok [ t ] ->
            if i mod checked_every = 0 then answers := (ex i, t) :: !answers;
            true
        | Ok _ | Error _ ->
            incr failed;
            false)
  in
  let after = Serving.stats s.server in
  let served = after.served - before.served in
  Printf.printf "saturation: window %d, %d requests in %.2f s, served %.0f/s, mean batch %.1f\n"
    saturation_window sat.Load.submitted sat.Load.wall
    (float_of_int served /. sat.Load.wall)
    (float_of_int served /. float_of_int (max 1 (after.batches - before.batches)));
  {
    served_per_s = float_of_int served /. sat.Load.wall;
    sat_shed = !shed;
    sat_failed = !failed;
    sat_attempted = sat.Load.submitted;
    sat_answers = !answers;
  }

let describe r =
  let t = Stats.tail (served_latencies r) in
  Printf.printf
    "rung %6.0f req/s: %d requests, served %.0f/s, p50 %.3f ms, latency \
     %s %.3f ms, late p99 %.3f ms, mean batch %.1f, depth max %d, mean \
     depth %.1f then %.1f, shed %d, failed %d%s\n"
    r.rate (Array.length r.load.due) (served_rate r)
    (Probe.ms (Stats.median (served_latencies r)))
    (Stats.pp_tail t) (Probe.ms t.Stats.value)
    (Probe.ms (Stats.tail r.load.late).Stats.value)
    (float_of_int r.served /. float_of_int (max 1 r.batches))
    r.depth_max (fst r.depth_halves) (snd r.depth_halves) r.shed r.failed
    (if backlog_growing r then ", backlog growing" else "")

let run ~seed ~seconds ~traced =
  let v = Schema.create () in
  let examples = examples ~seed in
  let setup_times, s =
    Training.repeated_setup ~count:setups ~setup:(setup ~seed) ~discard:(fun s ->
        Serving.shutdown s.server)
  in
  let rng = Rng.create (seed + 1) in
  let rung ~rate ~duration ~traced =
    let r = run_rung s ~rng ~examples ~rate ~duration ~traced in
    describe r;
    r
  in
  let rungs_run, saturation =
    if not traced then begin
      (* Peak RSS is read before the top rung: how far that rung's
         backlog grows depends on how far the host falls behind. *)
      let rss_kb = ref 0.0 in
      let rs =
        List.map
          (fun (rate, share) ->
            if rate = top_rung then rss_kb := Probe.vmhwm_kb ();
            rung ~rate ~duration:(share *. seconds) ~traced:false)
          rungs
      in
      let at = List.find (fun r -> r.rate = latency_rung) rs in
      let lat = served_latencies at in
      let sat =
        run_saturation s ~rng ~examples ~duration:(saturation_share *. seconds)
      in
      (* The SLO rate, like the latency tail, is printed, not
         reported: on a ladder that doubles, one rung more or less
         moves it twofold. See README.md. *)
      Printf.printf "slo rate: %.0f req/s (highest rung with p99 <= %g ms)\n"
        (List.fold_left
           (fun acc r -> Float.max acc (served_rate r))
           0.0 (List.filter passes_slo rs))
        slo_ms;
      Schema.set v "setup_s" (Stats.median setup_times);
      Schema.set v "samples_per_s" sat.served_per_s;
      Schema.set v "latency_p50_ms" (Probe.ms (Stats.median lat));
      ignore (sliced_p99 at);
      Schema.set v "peak_rss_mb" (!rss_kb /. 1024.0);
      (rs, Some sat)
    end
    else begin
      let duration = seconds /. 3.0 in
      let untraced = rung ~rate:latency_rung ~duration ~traced:false in
      Octf.Metrics.set_kernel_timing true;
      let before = Probe.counters () in
      let r = rung ~rate:latency_rung ~duration ~traced:true in
      let after = Probe.counters () in
      let n = Array.length r.load.due in
      Probe.set_deltas v ~ops:n ~before ~after;
      let p50 = Stats.median (served_latencies r) in
      let mean_batch = float_of_int r.served /. float_of_int (max 1 r.batches) in
      (* The executor and kernel layers, from direct runs of the frozen
         session at the observed mean batch size. *)
      let batch = max 1 (int_of_float (Float.round mean_batch)) in
      let xs = Array.init batch (fun k -> examples.(k mod distinct_examples)) in
      let walls = ref [] and stats = ref [] in
      for _ = 1 to 300 do
        let _, md = direct s xs ~collect:true in
        walls := md.S.Run_metadata.wall_time :: !walls;
        Option.iter (fun st -> stats := st :: !stats) md.S.Run_metadata.step_stats
      done;
      let _ =
        Probe.set_step_layers v ~walls:!walls ~stats:!stats
          ~gflop:(Probe.inference_gflop (contraction_layers ~batch))
      in
      let batch_run = Stats.median (Array.of_list !walls) in
      let set = Schema.set v in
      set "serving.submit_us_p50" (1e6 *. Stats.median r.load.submit_cost);
      set "serving.batch_run_ms" (Probe.ms batch_run);
      set "serving.queue_wait_ms_p50" (Probe.ms (p50 -. batch_run));
      set "serving.mean_batch" mean_batch;
      set "serving.shed" (float_of_int (untraced.shed + r.shed));
      set "serving.queue_depth_max" (float_of_int r.depth_max);
      set "load.latency_p99_ms" (Probe.ms (sliced_p99 untraced));
      set "load.late_ms_p99" (Probe.ms (Stats.tail r.load.late).Stats.value);
      set "trace.overhead_frac"
        ((p50 /. Stats.median (served_latencies untraced)) -. 1.0);
      (* Compile path: freeze compiles the inference step. *)
      let t0 = Stats.now () in
      ignore
        (Serving.freeze_session ~inputs:[ s.pixels ] ~outputs:[ s.logits ]
           s.training);
      set "session.compile_ms" (Probe.ms (Stats.now () -. t0));
      Probe.compile_path v ~graph:(S.graph s.training)
        ~passes:
          (Octf.Graph_optimizer.Freeze (S.variable_values s.training)
          :: Octf.Graph_optimizer.Prune :: Octf.Graph_optimizer.default_pipeline)
        ~devices:[ Probe.local_cpu ] ~feeds:[ s.pixels ] ~fetches:[ s.logits ]
        ~targets:[];
      Printf.printf "batch run %.3f ms at batch %d; traced p50 %.3f ms\n"
        (Probe.ms batch_run) batch (Probe.ms p50);
      ([ untraced; r ], None)
    end
  in
  Serving.shutdown s.server;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rungs_run in
  let sat f = Option.fold ~none:0 ~some:f saturation in
  let shed = sum (fun r -> r.shed) + sat (fun x -> x.sat_shed) in
  let failed = sum (fun r -> r.failed) + sat (fun x -> x.sat_failed) in
  let attempted =
    sum (fun r -> Array.length r.load.due) + sat (fun x -> x.sat_attempted)
  in
  let answers =
    List.concat_map (fun r -> r.answers) rungs_run
    @ Option.fold ~none:[] ~some:(fun x -> x.sat_answers) saturation
  in
  let checks =
    [
      ( "serve_cnn sampled answers equal direct runs",
        answers_match s ~examples answers );
      ("serve_cnn every admitted request answered", failed = 0);
    ]
  in
  { Schema.checks; attempted; failed_ops = shed + failed; values = v }
