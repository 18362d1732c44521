(* Repeated set-up, used by every workload; and what the two training
   workloads share: the closed-loop timed phase and the metrics
   computed from it. *)

open Octf_tensor

let check_steps = 20
let min_samples = 1000

(* Run [setup] [count] times, releasing each result with [discard]
   before the next set-up starts; return the set-up times and the last
   result. Each set-up starts from a collected heap, so garbage left by
   the previous one is not charged to it. setup_s is the median: one
   set-up is a few milliseconds, so a single slow one (a page-fault
   burst, a descheduling) would otherwise set the figure. A shared
   host's speed drifts over a second or so, so a run's set-ups span a
   few seconds. *)
let repeated_setup ~count ~setup ~discard =
  let times = Array.make count 0.0 in
  let last = ref None in
  let t_all = Stats.now () in
  for k = 0 to count - 1 do
    Option.iter discard !last;
    Gc.full_major ();
    let t0 = Stats.now () in
    let r = Spans.span ~req:k "setup" (fun id -> setup ~parent:id) in
    times.(k) <- Stats.now () -. t0;
    last := Some r
  done;
  let s = Stats.sorted times in
  Printf.printf
    "set up %d times in %.2f s: min %.3f ms, median %.3f ms, p90 %.3f ms; \
     VmHWM %.1f MB\n"
    count
    (Stats.now () -. t_all)
    (Probe.ms s.(0))
    (Probe.ms (Stats.median times))
    (Probe.ms (Stats.nearest_rank s 90.0))
    (Probe.vmhwm_kb () /. 1024.0);
  (times, Option.get !last)

(* One training step under [Run_options]: [collect] asks for
   Step_stats. *)
let step_options ~feeds ~targets ~collect =
  Octf.Session.Run_options.v ~feeds ~targets ~collect_stats:collect ()

(* The closed-loop timed phase. [step i ~collect] runs step [i] and
   returns its metadata. In a traced phase every odd step is traced: it
   is a span with its kernel events as children, and its wall time and
   Step_stats are kept; the even steps run untraced, interleaved, so
   the two sets see the same host conditions. *)
type phase = {
  loop : Load.closed;
  traced : bool;
  before : Probe.counters;
  after : Probe.counters;
  walls : float list;
  stats : Octf.Step_stats.t list;
}

let is_traced_step i = i land 1 = 1

let timed_phase ?at_min_steps ~seconds ~min_steps ~traced step =
  let walls = ref [] and stats = ref [] in
  Gc.full_major ();
  let before = Probe.counters () in
  let loop =
    Load.closed_loop ?at_min_steps ~seconds ~min_steps (fun i ->
        if traced && is_traced_step i then
          Spans.span ~req:i "step" (fun id ->
              let md = step i ~collect:true in
              match md.Octf.Session.Run_metadata.step_stats with
              | Some st ->
                  Spans.kernels ~parent:id ~req:i st;
                  stats := st :: !stats;
                  walls := md.wall_time :: !walls
              | None -> ())
        else ignore (step i ~collect:false))
  in
  let after = Probe.counters () in
  { loop; traced; before; after; walls = !walls; stats = !stats }

let steps p = Array.length p.loop.latencies

(* A phase's step latencies, split into traced and untraced steps. *)
let split p =
  let pick t =
    Array.of_list
      (List.filteri
         (fun i _ -> p.traced && is_traced_step i = t)
         (Array.to_list p.loop.latencies))
  in
  (pick true, pick false)

(* Steps per window of the closed-loop p99: the p99 of 100 steps is
   their second slowest. *)
let window = 100

(* The p99 of a typical 100-step window (Stats.windowed_p99). *)
let window_p99 lat =
  Stats.windowed_p99
    (Array.init (Array.length lat / window) (fun k -> Array.sub lat (k * window) window))

(* End-to-end metrics of an untraced phase. The step latency tail is
   printed, not reported: see README.md. *)
let set_end_to_end v ~setup_times ~batch ~peak_rss_mb p =
  let set = Schema.set v in
  let lat = p.loop.latencies in
  let tail = Stats.tail lat in
  let rate = float_of_int (steps p * batch) /. p.loop.wall in
  let sl = Stats.sorted lat in
  Printf.printf
    "timed phase: %d steps in %.2f s; step latency p50 %.3f ms, p90 %.3f ms, \
     %s %.3f ms, max %.3f ms; p99 of a typical %d-step window %.3f ms\n"
    (steps p) p.loop.wall
    (Probe.ms (Stats.nearest_rank sl 50.0))
    (Probe.ms (Stats.nearest_rank sl 90.0))
    (Stats.pp_tail tail) (Probe.ms tail.Stats.value)
    (Probe.ms sl.(Array.length sl - 1))
    window
    (Probe.ms (window_p99 lat));
  set "setup_s" (Stats.median setup_times);
  set "samples_per_s" rate;
  set "latency_p50_ms" (Probe.ms (Stats.median lat));
  set "peak_rss_mb" peak_rss_mb

(* Per-layer metrics of a traced phase, the tracing overhead (traced
   against untraced step latency within the phase) and the latency tail
   of the untraced steps. *)
let set_traced v p ~gflop =
  let wall_ms, kernel_ms, op_ms =
    Probe.set_step_layers v ~walls:p.walls ~stats:p.stats ~gflop
  in
  Probe.set_deltas v ~ops:(steps p) ~before:p.before ~after:p.after;
  let traced, untraced = split p in
  Schema.set v "trace.overhead_frac"
    ((Stats.median traced /. Stats.median untraced) -. 1.0);
  Schema.set v "load.latency_p99_ms" (Probe.ms (window_p99 untraced));
  (wall_ms, kernel_ms, op_ms)

let bits t = Array.map Int64.bits_of_float (Tensor.to_float_array t)
