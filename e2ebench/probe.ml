(* Layer probes: everything here reads public state of the program —
   the Octf.Metrics registry, Buffer_pool.stats, Gc.quick_stat,
   /proc/<pid>/status and Step_stats — or times calls into public
   functions. Nothing is added to the library. *)

open Octf_tensor

let ms x = 1e3 *. x

(* The VmHWM (peak resident set) line of a /proc/<pid>/status text,
   in kB; 0 when absent. *)
let vmhwm_kb_of_status text =
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; rest ] -> Scanf.sscanf_opt (String.trim rest) "%f kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' text)
  with
  | Some kb -> kb
  | None -> 0.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vmhwm_kb () = vmhwm_kb_of_status (read_file "/proc/self/status")

(* Sum of every series of one family in the default registry. *)
let metric name =
  List.fold_left
    (fun acc (s : Octf.Metrics.snapshot_sample) ->
      if s.name = name then acc +. s.value else acc)
    0.0
    (Octf.Metrics.snapshot Octf.Metrics.default)

(* Counters read before and after a measured phase. *)
type counters = {
  minor_words : float;
  major_gcs : int;
  pool_hits : int;
  pool_misses : int;
  cache_misses : float;
  net_bytes : float;
  net_frames : float;
  rpcs : float;
  rpc_failures : float;
  rdv_bytes : float;
}

let counters () =
  let g = Gc.quick_stat () in
  let p = Buffer_pool.stats () in
  {
    minor_words = g.Gc.minor_words;
    major_gcs = g.Gc.major_collections;
    pool_hits = p.Buffer_pool.hits;
    pool_misses = p.Buffer_pool.misses;
    cache_misses = metric "octf_session_cache_misses_total";
    net_bytes =
      metric "octf_net_bytes_sent_total" +. metric "octf_net_bytes_received_total";
    net_frames =
      metric "octf_net_frames_sent_total"
      +. metric "octf_net_frames_received_total";
    rpcs = metric "octf_net_rpcs_total";
    rpc_failures = metric "octf_net_rpc_failures_total";
    rdv_bytes =
      metric "octf_rendezvous_send_bytes_total"
      +. metric "octf_rendezvous_recv_bytes_total";
  }

(* Memory, session-cache and network layer metrics over [ops]
   operations between two counter readings. *)
let set_deltas v ~ops ~before ~after =
  let per x = x /. float_of_int (max 1 ops) in
  let set = Schema.set v in
  let hits = after.pool_hits - before.pool_hits
  and misses = after.pool_misses - before.pool_misses in
  set "memory.pool_hit_frac"
    (if hits + misses = 0 then 0.0
     else float_of_int hits /. float_of_int (hits + misses));
  set "memory.minor_mwords_per_step"
    (per (after.minor_words -. before.minor_words) /. 1e6);
  set "memory.major_gcs_per_1k_ops"
    (1000.0 *. per (float_of_int (after.major_gcs - before.major_gcs)));
  set "memory.peak_live_mb" (metric "octf_mem_peak_bytes" /. 1e6);
  set "session.cache_misses" (after.cache_misses -. before.cache_misses);
  set "net.bytes_per_step" (per (after.net_bytes -. before.net_bytes));
  set "net.frames_per_step" (per (after.net_frames -. before.net_frames));
  set "net.rpcs_per_step" (per (after.rpcs -. before.rpcs));
  set "net.rpc_failures" (after.rpc_failures -. before.rpc_failures);
  set "rendezvous.bytes_per_step" (per (after.rdv_bytes -. before.rdv_bytes))

(* The device a session without a device list runs on. *)
let local_cpu = Octf.Device.make ~job:"localhost" ~task:0 ~index:0 Octf.Device.CPU

(* The session compile path, timed from outside on a copy of the
   graph: the optimizer pipeline [passes] the session runs, then
   placement and partitioning of the optimized node set. *)
let compile_path v ~graph ~passes ~devices ~feeds ~fetches ~targets =
  let g = Octf.Graph.copy graph in
  let ep = List.map Octf.Builder.endpoint_of_output in
  let t0 = Stats.now () in
  let nodes =
    Octf.Graph_optimizer.run g ~passes
      ~feeds:(ep feeds) ~fetches:(ep fetches)
      ~targets:(List.map (fun (o : Octf.Builder.output) -> o.node.Octf.Node.id) targets)
  in
  let t1 = Stats.now () in
  Octf.Placement.place g
    ~nodes:(List.init (Octf.Graph.node_count g) Fun.id)
    ~devices;
  (match Octf.Partition.partition g ~nodes with
  | Ok _ -> ()
  | Error m -> failwith ("partition: " ^ m));
  let t2 = Stats.now () in
  Schema.set v "session.optimize_ms" (ms (t1 -. t0));
  Schema.set v "session.place_partition_ms" (ms (t2 -. t1))

(* Executor and kernel metrics from traced steps: [walls] are the
   steps' wall times and [stats] their Step_stats. [gflop] is the
   analytic contraction work of one step. *)
let contraction = [ "Conv2D"; "Conv2DGradFilter"; "Conv2DGradInput"; "MatMul" ]

let set_step_layers v ~walls ~stats ~gflop =
  let n = float_of_int (max 1 (List.length stats)) in
  let by_op = Hashtbl.create 16 in
  let kernels = ref 0 in
  List.iter
    (fun st ->
      List.iter
        (fun (op, count, secs) ->
          kernels := !kernels + count;
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_op op) in
          Hashtbl.replace by_op op (prev +. secs))
        (Octf.Step_stats.by_op_type st))
    stats;
  let op_ms op = ms (Option.value ~default:0.0 (Hashtbl.find_opt by_op op)) /. n in
  let total_ms = Hashtbl.fold (fun _ s acc -> acc +. ms s) by_op 0.0 /. n in
  let listed = List.fold_left (fun acc op -> acc +. op_ms op) 0.0 Schema.kernel_ops in
  let set = Schema.set v in
  let wall_ms = ms (List.fold_left ( +. ) 0.0 walls) /. n in
  let per_step_kernels = float_of_int !kernels /. n in
  set "executor.kernels_per_step" per_step_kernels;
  set "executor.overhead_ms_per_step" (wall_ms -. total_ms);
  set "executor.overhead_us_per_kernel"
    (1e3 *. (wall_ms -. total_ms) /. Float.max 1.0 per_step_kernels);
  set "kernels.ms_per_step" total_ms;
  List.iter (fun op -> set ("kernels." ^ op ^ ".ms_per_step") (op_ms op)) Schema.kernel_ops;
  set "kernels.other.ms_per_step" (total_ms -. listed);
  set "kernels.contraction_gflop_per_step" gflop;
  let contraction_ms = List.fold_left (fun acc op -> acc +. op_ms op) 0.0 contraction in
  set "kernels.contraction_gflops"
    (if contraction_ms > 0.0 then gflop /. (contraction_ms /. 1e3) else 0.0);
  (wall_ms, total_ms, op_ms)

(* Analytic contraction work in GFLOP. A layer is (rows, k, n): a
   [rows x k] by [k x n] product — a dense layer has one row per
   example, a stride-1 convolution one row per output pixel with
   k = kh*kw*cin. Training counts the forward product, the weight
   gradient, and the input gradient of every layer but the first
   (whose input is fed). *)
let layer_flop (rows, k, n) = 2.0 *. float_of_int (rows * k * n)

let inference_gflop layers =
  List.fold_left (fun acc l -> acc +. layer_flop l) 0.0 layers /. 1e9

let training_gflop layers =
  let first = match layers with l :: _ -> layer_flop l | [] -> 0.0 in
  (3.0 *. inference_gflop layers) -. (first /. 1e9)
