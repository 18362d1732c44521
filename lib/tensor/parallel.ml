(* Intra-op parallelism: a grain-aware parallel-for sharder.

   The tensor library cannot depend on the runtime's domain pool (the
   dependency points the other way), so the execution backend is a hook:
   [set_backend] is called once at runtime initialisation (see
   {!Octf.Domain_pool}) with a task-submission function. Until a backend
   is installed — or whenever the work is too small, the thread budget
   is 1, or we are already inside a parallel region — [parallel_for]
   degrades to the plain serial loop, so the tensor library works
   standalone and the null-op dispatch path pays only two loads.

   Scheduling is caller-runs: the calling thread claims chunks from an
   atomic counter alongside [shards - 1] helper tasks submitted to the
   backend. The caller always makes progress even if no helper ever
   runs (e.g. every pool worker is busy), so a kernel executing *on* a
   pool worker may shard onto the same pool without risk of deadlock.
   Late helpers find the counter drained and exit immediately.

   Determinism: chunks are contiguous, disjoint index ranges. Kernels
   built on [parallel_for] write disjoint output ranges and keep each
   output element's accumulation order fixed, so results are
   bit-identical for every thread count. *)

let default_threads () =
  match Sys.getenv_opt "OCTF_INTRA_OP_THREADS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf
            "octf: OCTF_INTRA_OP_THREADS must be a positive integer, got %S; \
             using the core count\n\
             %!"
            s;
          Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let threads_cell = Atomic.make (default_threads ())

let threads () = Atomic.get threads_cell

let set_threads n =
  if n < 1 then invalid_arg "Parallel.set_threads: thread count must be >= 1";
  Atomic.set threads_cell n

(* Both hooks are written once during process initialisation, before any
   worker domain exists, and only read afterwards. *)
let backend : ((unit -> unit) -> unit) option ref = ref None

let set_backend submit = backend := Some submit

let shard_hook : (int -> unit) option ref = ref None

let set_shard_hook f = shard_hook := Some f

(* Per-domain state: a re-entrancy flag (nested parallel_for runs
   serially: the outer call already owns the thread budget) and a shard
   counter the executor samples around each kernel to attribute shard
   counts per node. *)
let in_parallel_key = Domain.DLS.new_key (fun () -> ref false)

let shards_key = Domain.DLS.new_key (fun () -> ref 0)

let domain_shards () = !(Domain.DLS.get shards_key)

let default_grain = 1024

let parallel_for ?(grain = default_grain) n body =
  if n > 0 then begin
    let grain = max 1 grain in
    let t = Atomic.get threads_cell in
    (* Cheapest tests first: most calls are small and run inline. *)
    if
      n <= grain || t <= 1 || !backend = None
      || !(Domain.DLS.get in_parallel_key)
    then body 0 n
    else begin
      let shards = min t ((n + grain - 1) / grain) in
      if shards <= 1 then body 0 n
      else begin
        let submit = Option.get !backend in
        let chunk = (n + shards - 1) / shards in
        let next = Atomic.make 0 in
        let mutex = Mutex.create () in
        let finished = Condition.create () in
        let completed = ref 0 in
        let failure = ref None in
        let run_chunks () =
          let flag = Domain.DLS.get in_parallel_key in
          let saved = !flag in
          flag := true;
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < shards then begin
              let lo = i * chunk and hi = min n ((i + 1) * chunk) in
              (try body lo hi
               with e ->
                 Mutex.lock mutex;
                 if !failure = None then failure := Some e;
                 Mutex.unlock mutex);
              Mutex.lock mutex;
              incr completed;
              if !completed = shards then Condition.broadcast finished;
              Mutex.unlock mutex;
              loop ()
            end
          in
          loop ();
          flag := saved
        in
        for _ = 2 to shards do
          submit run_chunks
        done;
        let counter = Domain.DLS.get shards_key in
        counter := !counter + shards;
        (match !shard_hook with None -> () | Some f -> f shards);
        run_chunks ();
        Mutex.lock mutex;
        while !completed < shards do
          Condition.wait finished mutex
        done;
        Mutex.unlock mutex;
        match !failure with Some e -> raise e | None -> ()
      end
    end
  end
