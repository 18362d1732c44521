(* Load generation: a closed loop of steps, a seeded open-loop Poisson
   request generator and a saturating request window. *)

let now = Stats.now

(* Closed loop: the next step starts when the previous one returns.
   Runs for [seconds] and at least [min_steps] steps, keeping each
   step's latency in seconds; [at_min_steps] runs once, right after
   step [min_steps], so a reading taken there covers a fixed amount of
   work whatever the host's speed. *)
type closed = { latencies : float array; wall : float }

let closed_loop ?(at_min_steps = ignore) ~seconds ~min_steps step =
  let lats = Stats.Samples.create () in
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds || !i < min_steps do
    let s = now () in
    step !i;
    Stats.Samples.push lats (now () -. s);
    incr i;
    if !i = min_steps then at_min_steps ()
  done;
  { latencies = Stats.Samples.to_array lats; wall = now () -. t0 }

(* Arrival offsets, in seconds from the start, of a Poisson process at
   [rate] per second over [duration] seconds. *)
let poisson_schedule rng ~rate ~duration =
  let due = Stats.Samples.create () in
  let t = ref (Octf_tensor.Rng.exponential rng ~rate) in
  while !t < duration do
    Stats.Samples.push due !t;
    t := !t +. Octf_tensor.Rng.exponential rng ~rate
  done;
  Stats.Samples.to_array due

(* Open loop: one submit thread sends every request that is due, then
   sleeps to the next due time; one collector thread awaits replies in
   submission order. A request's latency runs from its due time, so a
   stall also counts against the requests queued behind it; [late] is
   how far behind its schedule the generator submitted each request.
   [offsets] are the requests' due times from the start, which is
   taken when the call begins.
   [submit i] returns [None] for a request the server refused;
   [complete i r] awaits [r] and says whether it was answered.
   [on_wake] runs on the submit thread after each burst of sends. *)
type opened = {
  due : float array;
  latency : float array;  (** nan for refused or failed requests *)
  late : float array;
  submit_cost : float array;  (** seconds spent in the submit call *)
  finished : float;  (** when the last reply arrived *)
}

let open_loop ~offsets ~submit ~complete ~on_wake =
  let n = Array.length offsets in
  let start = now () +. 0.001 in
  let due = Array.map (fun o -> start +. o) offsets in
  let latency = Array.make n nan in
  let late = Array.make n 0.0 in
  let submit_cost = Array.make n 0.0 in
  let pending = Queue.create () in
  let m = Mutex.create () and c = Condition.create () in
  let closed = ref false in
  let collector =
    Thread.create
      (fun () ->
        let rec loop () =
          Mutex.lock m;
          while Queue.is_empty pending && not !closed do
            Condition.wait c m
          done;
          match Queue.take_opt pending with
          | None -> Mutex.unlock m
          | Some (i, r) ->
              Mutex.unlock m;
              (match r with
              | Some r -> if complete i r then latency.(i) <- now () -. due.(i)
              | None -> ());
              loop ()
        in
        loop ())
      ()
  in
  let i = ref 0 in
  while !i < n do
    let t = now () in
    while !i < n && due.(!i) <= t do
      let s = now () in
      late.(!i) <- s -. due.(!i);
      let r = submit !i in
      submit_cost.(!i) <- now () -. s;
      Mutex.lock m;
      Queue.push (!i, r) pending;
      Condition.signal c;
      Mutex.unlock m;
      incr i
    done;
    on_wake ();
    if !i < n then begin
      let d = due.(!i) -. now () in
      if d > 0.0 then Thread.delay d
    end
  done;
  Mutex.lock m;
  closed := true;
  Condition.signal c;
  Mutex.unlock m;
  Thread.join collector;
  { due; latency; late; submit_cost; finished = now () }

(* Saturation: one submit thread keeps between [window / 2] and
   [window] requests in flight for [seconds], topping the window up
   whenever half of it has been answered; one collector thread awaits
   replies in submission order. With the window several batches deep
   the server never waits for work, so the answered rate is its
   capacity, not an offered rate. [submit] and [complete] are as for
   [open_loop]. *)
type saturated = { submitted : int; wall : float  (** first submit to last reply *) }

let saturate ~window ~seconds ~submit ~complete =
  let pending = Queue.create () in
  let m = Mutex.create () in
  let work = Condition.create () and room = Condition.create () in
  let in_flight = ref 0 and closed = ref false in
  let collector =
    Thread.create
      (fun () ->
        let rec loop () =
          Mutex.lock m;
          while Queue.is_empty pending && not !closed do
            Condition.wait work m
          done;
          match Queue.take_opt pending with
          | None -> Mutex.unlock m
          | Some (i, r) ->
              Mutex.unlock m;
              Option.iter (fun r -> ignore (complete i r)) r;
              Mutex.lock m;
              decr in_flight;
              if !in_flight = window / 2 then Condition.signal room;
              Mutex.unlock m;
              loop ()
        in
        loop ())
      ()
  in
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds do
    Mutex.lock m;
    while !in_flight > window / 2 do
      Condition.wait room m
    done;
    let free = window - !in_flight in
    Mutex.unlock m;
    for _ = 1 to free do
      let r = submit !i in
      Mutex.lock m;
      incr in_flight;
      Queue.push (!i, r) pending;
      Condition.signal work;
      Mutex.unlock m;
      incr i
    done
  done;
  Mutex.lock m;
  closed := true;
  Condition.signal work;
  Mutex.unlock m;
  Thread.join collector;
  { submitted = !i; wall = now () -. t0 }
