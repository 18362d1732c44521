open Octf_tensor

(* All failures surface as {!Step_failure.Error}; [invalid] marks
   graph-structure problems found at compile or delivery time. *)
let invalid msg = Step_failure.error (Step_failure.Invalid_graph msg)

(* ------------------------------------------------------------------ *)
(* Static structure                                                     *)
(* ------------------------------------------------------------------ *)

type static_frame = {
  sf_id : int;  (* 0 for the root frame *)
  sf_name : string;
  sf_parent : static_frame option;
  sf_depth : int;
}

let root_frame = { sf_id = 0; sf_name = ""; sf_parent = None; sf_depth = 0 }

let rec frame_is_ancestor ~anc f =
  anc == f
  || match f.sf_parent with None -> false | Some p -> frame_is_ancestor ~anc p

(* The op types the executor itself interprets, so that no op-type
   string is compared on the hot path. *)
type kind = Plain | Merge | Enter | Exit | Next_iteration | Send

let kind_of_op = function
  | "Merge" -> Merge
  | "Enter" -> Enter
  | "Exit" -> Exit
  | "NextIteration" -> Next_iteration
  | "Send" -> Send
  | _ -> Plain

(* Every compiled node has a dense index [g]. A node executes in one
   frame ([frame]) and is numbered [local] among that frame's nodes; its
   output values live in one frame's value slots starting at [slot] —
   the parent frame for an Exit, its own frame otherwise. The state of
   one iteration of a frame instance is a set of arrays indexed by these
   frame-local numbers, so a graph without control flow allocates just
   the root frame's iteration 0. *)
type frame_layout = {
  fl_in_count : int array;  (* arrivals needed, by local index *)
  fl_slots : int;  (* output values stored in this frame *)
  fl_rc : int array;  (* data consumers per slot of a fresh endpoint *)
  fl_poolable : bool array;  (* no consumer retains the endpoint *)
  fl_no_pins : bool array;  (* all false: fetches read the root only *)
}

type plan = {
  p_graph : Graph.t;
  p_index : (int, int) Hashtbl.t;  (* node id -> dense index *)
  p_nodes : Node.t array;
  p_kernels : Kernel.t option array;  (* resolved on first use *)
  p_kind : kind array;
  (* An invariant node executes once per frame instance and its outputs
     are visible in every iteration: constant Enters, and any stateless
     in-frame node all of whose inputs are invariant. *)
  p_invariant : bool array;
  p_fed : bool array;
  p_frame : int array;
  p_local : int array;
  p_value_frame : int array;
  p_slot : int array;
  p_nouts : int array;  (* value slots per node *)
  p_inputs : int array array;  (* producer value slot per input *)
  p_inv_inputs : bool array array;  (* [||] when no input is invariant *)
  p_inv_srcs : int array array;  (* local indices of invariant producers *)
  (* Input slots whose producer's refcount this node releases when it
     finishes (-1: untracked). Only same-iteration edges from fresh
     producers are tracked; an untracked endpoint is never dropped
     early, which leaks until step end but never frees a live value. *)
  p_tracked : int array array;
  p_data_out : (int * int) array array;  (* (output, consumer) *)
  p_control_out : int array array;
  p_cls : Scheduler.cls array;
  p_aliases : (int * int) list array;  (* declared May_alias pairs *)
  p_fresh : bool array;  (* outputs are planner-owned fresh buffers *)
  p_frames : frame_layout array;
  p_scheduler : Scheduler.policy;
  p_planning : bool;  (* lifetime-driven drops / grants enabled *)
}

let is_const_enter_node (n : Node.t) =
  n.Node.op_type = "Enter"
  && Option.value ~default:false (Attr.find_bool n.Node.attrs "is_constant")

let never_invariant op =
  match op with
  | "Merge" | "Switch" | "Exit" | "NextIteration" | "Enter" | "LoopCond" ->
      true
  | _ -> false

let blocking_op = function
  | "Recv" | "Dequeue" | "DequeueMany" | "Enqueue" | "EnqueueMany" -> true
  | _ -> false

let prepare ~scheduler ~memory_planning ~graph ~nodes ~fed_ids =
  Builtin_kernels.ensure ();
  (* Dense indices follow the id table's iteration order, which is also
     the order sources are first scheduled in. *)
  let index = Hashtbl.create (List.length nodes * 2) in
  List.iter (fun id -> Hashtbl.replace index id (-1)) nodes;
  let ids = Array.of_seq (Hashtbl.to_seq_keys index) in
  Array.iteri (fun g id -> Hashtbl.replace index id g) ids;
  let n = Array.length ids in
  let dense id = Hashtbl.find_opt index id in
  let nodes = Array.map (Graph.get graph) ids in
  let fed_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace fed_set id ()) fed_ids;
  let fed = Array.map (fun id -> Hashtbl.mem fed_set id) ids in
  let kind = Array.map (fun nd -> kind_of_op nd.Node.op_type) nodes in
  let invariant = Array.map is_const_enter_node nodes in
  let sframe = Array.make n root_frame in
  let frames = Hashtbl.create 8 in  (* name -> frame, root excluded *)
  let out_frame g =
    if kind.(g) = Exit then
      match sframe.(g).sf_parent with
      | Some p -> p
      | None ->
          raise (invalid ("Exit outside a frame: " ^ nodes.(g).Node.name))
    else sframe.(g)
  in
  let input_ids (nd : Node.t) =
    Array.to_list (Array.map (fun (e : Node.endpoint) -> e.node_id) nd.inputs)
    @ nd.Node.control_inputs
  in
  (* One topological pass (loop back edges ignored) assigns frames and
     invariant-ness. *)
  List.iter
    (fun (nd : Node.t) ->
      match dense nd.Node.id with
      | None -> ()
      | Some g ->
          let srcs = List.map dense (input_ids nd) in
          let input_frames = List.filter_map (Option.map out_frame) srcs in
          let deepest =
            List.fold_left
              (fun acc f -> if f.sf_depth > acc.sf_depth then f else acc)
              root_frame input_frames
          in
          List.iter
            (fun f ->
              if not (frame_is_ancestor ~anc:f deepest) then
                raise
                  (invalid
                     (Printf.sprintf
                        "node %s mixes values from unrelated frames %S and \
                         %S (pass loop-external values via ~invariants)"
                        nd.Node.name f.sf_name deepest.sf_name)))
            input_frames;
          (sframe.(g) <-
             match kind.(g) with
             | Enter -> (
                 let name = Node.attr_string nd "frame_name" in
                 match Hashtbl.find_opt frames name with
                 | Some f -> f
                 | None ->
                     let f =
                       {
                         sf_id = Hashtbl.length frames + 1;
                         sf_name = name;
                         sf_parent = Some deepest;
                         sf_depth = deepest.sf_depth + 1;
                       }
                     in
                     Hashtbl.replace frames name f;
                     f)
             | _ -> deepest);
          (* Invariant propagation: inside a frame, a stateless node whose
             inputs are all invariant is itself invariant. *)
          if
            (not invariant.(g))
            && sframe.(g) != root_frame
            && (not (never_invariant nd.Node.op_type))
            && (not (Node.is_stateful nd))
            && srcs <> []
            && List.for_all
                 (function Some s -> invariant.(s) | None -> false)
                 srcs
          then invariant.(g) <- true)
    (Graph.topological_order graph);
  (* An edge must stay within one frame unless it feeds an Enter or
     comes from an invariant node of the consumer's frame. Producer-side
     Exit adjustments keep those edges same-frame from the value's point
     of view. *)
  let check_edge src dst =
    let sf = out_frame src and df = sframe.(dst) in
    let name g = nodes.(g).Node.name in
    if invariant.(src) && sframe.(src) != df then
      raise
        (invalid
           (Printf.sprintf
              "edge %s -> %s reads a loop invariant of the enclosing frame \
               %S; an inner loop can only take a per-iteration value of \
               the enclosing loop"
              (name src) (name dst) sframe.(src).sf_name))
    else if sf != df && kind.(dst) <> Enter && not invariant.(src) then
      raise
        (invalid
           (Printf.sprintf
              "edge %s -> %s crosses loop frames (%S -> %S); pass \
               loop-external values through ~invariants (constants created \
               inside a loop body must enter its frame)"
              (name src) (name dst) sf.sf_name df.sf_name))
  in
  (* Wire edges and arrival counts, restricted to the executed set. *)
  let in_count = Array.make n 0 in
  let data_out = Array.make n [] and control_out = Array.make n [] in
  let inv_srcs = Array.make n [] in
  let src_of = Array.make n [||] in
  Array.iteri
    (fun g (nd : Node.t) ->
      if not fed.(g) then begin
        src_of.(g) <-
          Array.map
            (fun (e : Node.endpoint) ->
              let src =
                match dense e.node_id with
                | Some s -> s
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Executor: input %s of %s is outside the executed \
                          subgraph"
                         (Graph.get graph e.node_id).Node.name nd.Node.name)
              in
              check_edge src g;
              data_out.(src) <- (e.index, g) :: data_out.(src);
              if invariant.(src) then inv_srcs.(g) <- src :: inv_srcs.(g)
              else in_count.(g) <- in_count.(g) + 1;
              src)
            nd.Node.inputs;
        List.iter
          (fun c ->
            match dense c with
            | None -> ()
            | Some src ->
                check_edge src g;
                control_out.(src) <- g :: control_out.(src);
                if invariant.(src) then inv_srcs.(g) <- src :: inv_srcs.(g)
                else in_count.(g) <- in_count.(g) + 1)
          nd.Node.control_inputs
      end)
    nodes;
  (* Frame-local numbering and value-slot layout. *)
  let nframes = Hashtbl.length frames + 1 in
  let frame = Array.map (fun f -> f.sf_id) sframe in
  let value_frame = Array.init n (fun g -> (out_frame g).sf_id) in
  let counts = Array.make nframes 0 and slots = Array.make nframes 0 in
  let local =
    Array.map
      (fun f ->
        let l = counts.(f) in
        counts.(f) <- l + 1;
        l)
      frame
  in
  let nouts = Array.map (fun nd -> max 1 (Node.num_outputs nd)) nodes in
  Array.iteri
    (fun src edges ->
      List.iter
        (fun (out, _) -> nouts.(src) <- max nouts.(src) (out + 1))
        edges)
    data_out;
  let slot =
    Array.mapi
      (fun g f ->
        let s = slots.(f) in
        slots.(f) <- s + nouts.(g);
        s)
      value_frame
  in
  let fresh =
    Array.mapi
      (fun g nd ->
        (not fed.(g)) && (not invariant.(g))
        && Mem_plan.fresh_output_op nd.Node.op_type)
      nodes
  in
  let rc = Array.init nframes (fun f -> Array.make slots.(f) 0) in
  let poolable = Array.init nframes (fun f -> Array.make slots.(f) false) in
  Array.iteri
    (fun src edges ->
      if fresh.(src) then begin
        let f = value_frame.(src) and base = slot.(src) in
        Array.fill poolable.(f) base nouts.(src) true;
        List.iter
          (fun (out, dst) ->
            rc.(f).(base + out) <- rc.(f).(base + out) + 1;
            if Mem_plan.retains_input nodes.(dst).Node.op_type then
              poolable.(f).(base + out) <- false)
          edges
      end)
    data_out;
  let in_counts = Array.map (fun c -> Array.make c 0) counts in
  Array.iteri (fun g c -> in_counts.(frame.(g)).(local.(g)) <- c) in_count;
  let p_frames =
    Array.init nframes (fun f ->
        {
          fl_in_count = in_counts.(f);
          fl_slots = slots.(f);
          fl_rc = rc.(f);
          fl_poolable = poolable.(f);
          fl_no_pins = Array.make slots.(f) false;
        })
  in
  let inputs =
    Array.mapi
      (fun g srcs ->
        Array.mapi
          (fun i src -> slot.(src) + nodes.(g).Node.inputs.(i).Node.index)
          srcs)
      src_of
  in
  {
    p_graph = graph;
    p_index = index;
    p_nodes = nodes;
    p_kernels = Array.make n None;
    p_kind = kind;
    p_invariant = invariant;
    p_fed = fed;
    p_frame = frame;
    p_local = local;
    p_value_frame = value_frame;
    p_slot = slot;
    p_nouts = nouts;
    p_inputs = inputs;
    p_inv_inputs =
      Array.map
        (fun srcs ->
          if Array.exists (fun s -> invariant.(s)) srcs then
            Array.map (fun s -> invariant.(s)) srcs
          else [||])
        src_of;
    p_inv_srcs =
      Array.map
        (fun l -> Array.of_list (List.map (fun s -> local.(s)) l))
        inv_srcs;
    p_tracked =
      Array.mapi
        (fun g srcs ->
          Array.mapi
            (fun i src ->
              if fresh.(src) && kind.(g) <> Enter then inputs.(g).(i) else -1)
            srcs)
        src_of;
    p_data_out = Array.map Array.of_list data_out;
    p_control_out = Array.map Array.of_list control_out;
    p_cls =
      Array.map
        (fun nd ->
          if nd.Node.op_type = "Recv" then Scheduler.Recv
          else if blocking_op nd.Node.op_type then Scheduler.Blocking
          else Scheduler.Normal)
        nodes;
    p_aliases =
      Array.map (fun nd -> Kernel.aliases ~op_type:nd.Node.op_type) nodes;
    p_fresh = fresh;
    p_frames;
    p_scheduler = scheduler;
    p_planning = memory_planning;
  }

let m_kernels =
  Metrics.Counter.v ~help:"Kernels dispatched by the executor"
    "octf_executor_kernels_total"

let m_op_seconds op =
  Metrics.Counter.v ~help:"Kernel wall-clock seconds by op type"
    ~labels:[ ("op_type", op) ]
    "octf_executor_op_seconds_total"

let m_lane_busy lane =
  Metrics.Counter.v ~help:"Kernel wall-clock seconds by execution lane"
    ~labels:[ ("lane", string_of_int lane) ]
    "octf_executor_lane_busy_seconds_total"

let m_intra_op_parallel =
  Metrics.Counter.v ~help:"Kernel loops that sharded across the domain pool"
    "octf_intra_op_parallel_total"

let m_intra_op_shards =
  Metrics.Counter.v ~help:"Intra-op shards dispatched to the domain pool"
    "octf_intra_op_shards_total"

(* Every sharded parallel_for in the process feeds the intra-op counters,
   whichever kernel (or library caller) ran it. *)
let () =
  Octf_tensor.Parallel.set_shard_hook (fun shards ->
      Metrics.Counter.incr m_intra_op_parallel;
      Metrics.Counter.add m_intra_op_shards shards)

(* Wrap one kernel invocation. The dispatch counter is always bumped;
   the gettimeofday pair (and the derived per-op-type / per-lane series
   and tracer event) is gated on an active tracer or the process-wide
   [Metrics.kernel_timing] flag, so the null-op dispatch benchmark pays
   one counter increment and nothing else. [bytes_of] extracts the
   payload size from the kernel's result (Recv'd tensor bytes). *)
let trace tracer (n : Node.t) ~step_id ?(bytes_of = fun _ -> 0)
    ?(peak_of = fun _ -> 0) f =
  Metrics.Counter.incr m_kernels;
  if Option.is_none tracer && not (Metrics.kernel_timing ()) then f ()
  else begin
    (* The sharder's per-domain dispatch counter, sampled around the
       kernel, attributes intra-op shard counts to this node: sharding is
       always initiated on the domain the kernel runs on. *)
    let shards_before = Octf_tensor.Parallel.domain_shards () in
    let start = Unix.gettimeofday () in
    let result = f () in
    let stop = Unix.gettimeofday () in
    let duration = stop -. start in
    let shards = Octf_tensor.Parallel.domain_shards () - shards_before in
    let lane = (Domain.self () :> int) in
    Metrics.Counter.add_f (m_op_seconds n.Node.op_type) duration;
    Metrics.Counter.add_f (m_lane_busy lane) duration;
    (match tracer with
    | None -> ()
    | Some t ->
        Tracer.record t
          {
            Tracer.name = n.Node.name;
            op_type = n.Node.op_type;
            device =
              (match n.Node.assigned_device with
              | Some d -> Device.to_string d
              | None -> "/device:CPU:0");
            lane;
            start;
            duration;
            step_id;
            bytes = bytes_of result;
            shards;
            peak_bytes = peak_of result;
            fused =
              Option.value ~default:0
                (Attr.find_int n.Node.attrs "fused_nodes");
          });
    result
  end

let recv_rendezvous_key ~step_id (n : Node.t) =
  Rendezvous.step_key ~step_id
    ~send_device:(Node.attr_string n "send_device")
    ~recv_device:(Node.attr_string n "recv_device")
    ~tensor_name:(Node.attr_string n "tensor_name")

(* ------------------------------------------------------------------ *)
(* Dynamic state                                                        *)
(* ------------------------------------------------------------------ *)

(* One iteration of one frame instance. Node-indexed arrays use the
   frame-local index; value-indexed arrays use the value slots. *)
type iter = {
  inst : instance;
  index : int;
  pending : int array;  (* arrivals still missing *)
  flags : int array;  (* [scheduled], [dead_control], [live_input] bits *)
  values : Value.t array;  (* Dead until produced *)
  (* Memory planning: unfinished data consumers per fresh endpoint. An
     endpoint whose count reaches zero is dropped from [values]. *)
  rc : int array;
  (* Endpoints whose buffer was granted in-place to a consumer: the
     consumer's output (or a variable) now owns it, so a later drop must
     neither un-count its bytes nor recycle the buffer. *)
  transferred : bool array;
  pinned : bool array;  (* fetched endpoints: never dropped or granted *)
  mutable children : instance list;  (* frames entered from here *)
}

and instance = {
  frame : int;
  parent : iter option;  (* the iteration this instance was entered from *)
  mutable iters : iter array;  (* by index; created in order *)
  mutable count : int;
  inv_values : Value.t array;  (* invariant outputs, by value slot *)
  inv_done : bool array;  (* invariant nodes finished, by local index *)
}

let scheduled = 1
let dead_control = 2
let live_input = 4 (* a Merge received a live data input *)

type step = {
  plan : plan;
  resources : Resource_manager.t;
  rendezvous : Rendezvous.t option;
  tracer : Tracer.t option;
  cancel : Cancel.t option;
  seed : int;
  step_id : int;
  var_snapshot : (string -> Octf_tensor.Tensor.t option) option;
  live : int ref;  (* planner-tracked live bytes, this step *)
  (* Set right after creation (the scheduler's callbacks close over the
     step, so the two are built in sequence). *)
  mutable sched : (int * iter) Scheduler.t option;
}

let new_iter st inst index pinned =
  let fl = st.plan.p_frames.(inst.frame) in
  let it =
    {
      inst;
      index;
      pending = Array.copy fl.fl_in_count;
      flags = Array.make (Array.length fl.fl_in_count) 0;
      values = Array.make fl.fl_slots Value.Dead;
      rc = Array.copy fl.fl_rc;
      transferred = Array.make fl.fl_slots false;
      pinned;
      children = [];
    }
  in
  if inst.count = Array.length inst.iters then begin
    let grown = Array.make (max 1 (2 * inst.count)) it in
    Array.blit inst.iters 0 grown 0 inst.count;
    inst.iters <- grown
  end;
  inst.iters.(inst.count) <- it;
  inst.count <- inst.count + 1;
  it

let new_instance st frame parent ~pinned =
  let fl = st.plan.p_frames.(frame) in
  let inst =
    {
      frame;
      parent;
      iters = [||];
      count = 0;
      inv_values = Array.make fl.fl_slots Value.Dead;
      inv_done = Array.make (Array.length fl.fl_in_count) false;
    }
  in
  new_iter st inst 0 pinned

let next_iter st (it : iter) =
  let inst = it.inst in
  if it.index + 1 < inst.count then inst.iters.(it.index + 1)
  else
    new_iter st inst (it.index + 1) st.plan.p_frames.(inst.frame).fl_no_pins

(* Iteration 0 of the instance of [frame] entered from [it]. *)
let child_iter st (it : iter) frame =
  match List.find_opt (fun c -> c.frame = frame) it.children with
  | Some c -> c.iters.(0)
  | None ->
      let it0 =
        new_instance st frame (Some it)
          ~pinned:st.plan.p_frames.(frame).fl_no_pins
      in
      it.children <- it0.inst :: it.children;
      it0

let parent_iter (it : iter) =
  match it.inst.parent with Some p -> p | None -> assert false

let live_add st b =
  st.live := !(st.live) + b;
  Mem_plan.live_add b

let live_sub st b =
  st.live := !(st.live) - b;
  Mem_plan.live_sub b

let invariants_available st g (inst : instance) =
  Array.for_all (fun l -> inst.inv_done.(l)) st.plan.p_inv_srcs.(g)

let schedule st g (it : iter) =
  it.flags.(st.plan.p_local.(g)) <-
    it.flags.(st.plan.p_local.(g)) lor scheduled;
  match st.sched with
  | Some sched -> Scheduler.add sched (g, it)
  | None -> assert false

(* Readiness. Per-iteration nodes fire once per (instance, iteration);
   invariant nodes fire once per instance, executing in iteration 0's
   context (their per-iteration arrivals — e.g. a constant Enter's input
   — are always delivered at iteration 0). A Merge fires on its first
   live data input. *)
let check_ready st g (it : iter) =
  let p = st.plan in
  let l = p.p_local.(g) in
  let it = if p.p_invariant.(g) then it.inst.iters.(0) else it in
  if it.flags.(l) land scheduled = 0 then
    let ready =
      if p.p_kind.(g) = Merge then
        it.flags.(l) land live_input <> 0 || it.pending.(l) <= 0
      else it.pending.(l) <= 0 && invariants_available st g it.inst
    in
    if ready then schedule st g it

(* One arrival along an edge from a producer that ran in [it]: the
   producer-side adjustment (Exit feeds the parent iteration,
   NextIteration the next one) is already applied; Enter moves the
   consumer into its child frame. *)
let deliver st (it : iter) dst ~dead ~live_merge =
  let p = st.plan in
  let it =
    if p.p_kind.(dst) = Enter then child_iter st it p.p_frame.(dst) else it
  in
  let l = p.p_local.(dst) in
  it.pending.(l) <- it.pending.(l) - 1;
  if dead then it.flags.(l) <- it.flags.(l) lor dead_control;
  if live_merge then it.flags.(l) <- it.flags.(l) lor live_input;
  check_ready st dst it

let store_invariants st g (inst : instance) (outputs : Value.t array) =
  let p = st.plan in
  let base = p.p_slot.(g) in
  Array.iteri
    (fun out v ->
      if out < p.p_nouts.(g) then inst.inv_values.(base + out) <- v)
    outputs;
  inst.inv_done.(p.p_local.(g)) <- true;
  (* Wake consumers: invariant consumers cascade; per-iteration consumers
     are re-checked in every existing iteration. *)
  let wake dst =
    for i = 0 to (if p.p_invariant.(dst) then 0 else inst.count - 1) do
      check_ready st dst inst.iters.(i)
    done
  in
  Array.iter (fun (_, dst) -> wake dst) p.p_data_out.(g);
  Array.iter wake p.p_control_out.(g)

(* Drop one tracked endpoint all of whose readers have finished: forget
   the stored value so the GC can reclaim it, un-count its bytes and
   offer the backing buffer to the pool — unless it is fetched, or an
   in-place grant already transferred ownership to a consumer's output.
   Consumers still staged hold their own gathered references. *)
let drop st (it : iter) a =
  if not it.pinned.(a) then begin
    (match it.values.(a) with
    | Value.Tensor t when not it.transferred.(a) ->
        live_sub st (Tensor.byte_size t);
        if
          st.plan.p_frames.(it.inst.frame).fl_poolable.(a)
          && Dtype.is_floating (Tensor.dtype t)
        then Buffer_pool.release_float (Tensor.float_buffer t)
    | _ -> ());
    it.values.(a) <- Value.Dead
  end

let finish_node st g (it : iter) (outputs : Value.t array) =
  let p = st.plan in
  if p.p_invariant.(g) then store_invariants st g it.inst outputs
  else begin
    let kind = p.p_kind.(g) in
    let all_dead =
      Array.length outputs > 0 && Array.for_all Value.is_dead outputs
    in
    (* Exit and NextIteration forward only live values, into the parent
       and the next iteration; dead ones end the loop there. *)
    let forwards = kind = Exit || kind = Next_iteration in
    if not (forwards && all_dead) then begin
      let target =
        match kind with
        | Exit -> parent_iter it
        | Next_iteration -> next_iter st it
        | _ -> it
      in
      let base = p.p_slot.(g) in
      let n = min (Array.length outputs) p.p_nouts.(g) in
      for out = 0 to n - 1 do
        if not (forwards && Value.is_dead outputs.(out)) then
          target.values.(base + out) <- outputs.(out)
      done;
      (* Lifetime bookkeeping for planner-owned outputs: count the bytes
         (always, so traces and the peak gauge are comparable with
         planning off), and drop endpoints nobody reads — or whose
         readers already finished (a Merge that fired early). *)
      if p.p_fresh.(g) then
        for out = 0 to n - 1 do
          match outputs.(out) with
          | Value.Tensor t ->
              live_add st (Tensor.byte_size t);
              if p.p_planning && it.rc.(base + out) = 0 then
                drop st it (base + out)
          | _ -> ()
        done;
      Array.iter
        (fun (out, dst) ->
          let dead =
            out >= Array.length outputs || Value.is_dead outputs.(out)
          in
          if not (forwards && dead) then
            deliver st target dst ~dead:false
              ~live_merge:(p.p_kind.(dst) = Merge && not dead))
        p.p_data_out.(g);
      Array.iter
        (fun dst -> deliver st target dst ~dead:all_dead ~live_merge:false)
        p.p_control_out.(g)
    end;
    (* This node has finished reading its inputs: release its claim on
       each tracked input endpoint; the last reader out frees it. *)
    if p.p_planning then
      Array.iter
        (fun a ->
          if a >= 0 then begin
            it.rc.(a) <- it.rc.(a) - 1;
            if it.rc.(a) = 0 then drop st it a
          end)
        p.p_tracked.(g)
  end

let gather_inputs st g (it : iter) =
  let p = st.plan in
  let slots = p.p_inputs.(g) in
  if p.p_kind.(g) = Enter then
    let from = (parent_iter it).values in
    Array.map (fun a -> from.(a)) slots
  else
    match p.p_inv_inputs.(g) with
    | [||] -> Array.map (fun a -> it.values.(a)) slots
    | inv ->
        Array.mapi
          (fun i a ->
            if inv.(i) then it.inst.inv_values.(a) else it.values.(a))
          slots

let resolve_kernel p g =
  match p.p_kernels.(g) with
  | Some k -> k
  | None ->
      let n = p.p_nodes.(g) in
      let device_type =
        match n.Node.assigned_device with
        | Some d -> d.Device.dev_type
        | None -> Device.CPU
      in
      let k =
        match Kernel.lookup ~op_type:n.Node.op_type ~device:device_type with
        | Some k -> k
        | None -> (
            match Kernel.lookup ~op_type:n.Node.op_type ~device:Device.CPU with
            | Some k -> k
            | None ->
                raise
                  (Step_failure.error ~node:n.Node.name
                     (Step_failure.Invalid_graph
                        (Printf.sprintf "no kernel for op %s (node %s)"
                           n.Node.op_type n.Node.name))))
      in
      p.p_kernels.(g) <- Some k;
      k

(* Classify an arbitrary kernel exception into a structured failure,
   filling in node/device context when the original carries none. *)
let failure_of_exn ~node ~device e =
  match e with
  | Step_failure.Error f ->
      {
        f with
        Step_failure.node =
          (if f.Step_failure.node = None then Some node
           else f.Step_failure.node);
        device =
          (if f.Step_failure.device = None then device
           else f.Step_failure.device);
      }
  | Fault_injector.Injected msg ->
      Step_failure.v ~node ?device (Step_failure.Fault_injected msg)
  | Rendezvous.Aborted reason ->
      Step_failure.v ~node ?device (Step_failure.Rendezvous_aborted reason)
  | e ->
      Step_failure.v ~node ?device
        (Step_failure.Kernel_failed (Printexc.to_string e))

(* Run [kernel ctx], worker-domain-safe: failures are captured and
   re-raised by the returned continuation on the coordinating thread
   (aborting the rendezvous and cancelling the step token first, so
   peer partitions — including threads parked in queue waits — unblock
   even while the coordinator is busy elsewhere). Wrap in a thunk when
   building a [Scheduler.Offload] — applying it runs the kernel. *)
let offload_kernel ~tracer ~rendezvous ~cancel ~step_id
    ?(live_of = fun () -> 0) (n : Node.t) kernel ctx ~finish =
  let bytes_of outputs =
    match n.Node.op_type with
    | "Recv" ->
        Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 outputs
    | _ -> 0
  in
  (* Per-node memory watermark: live planner-tracked bytes sampled when
     the kernel finishes, plus this node's own (not-yet-counted)
     outputs. The racy read of the live counter is fine — this feeds
     traces, not the planner. *)
  let peak_of outputs =
    live_of ()
    + Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 outputs
  in
  match
    trace tracer n ~step_id ~bytes_of ~peak_of (fun () ->
        Cancel.check_opt cancel;
        Fault_injector.kernel_hook n ~step_id;
        kernel ctx)
  with
  | outputs -> fun () -> finish outputs
  | exception e ->
      let device = Option.map Device.to_string n.Node.assigned_device in
      let f = failure_of_exn ~node:n.Node.name ~device e in
      let msg = Step_failure.to_string f in
      (* A secondary failure (the peer already aborted us, or the step
         token already fired) needs no further propagation. *)
      if not (Step_failure.is_secondary f.Step_failure.cause) then begin
        Option.iter (fun r -> Rendezvous.abort r ~reason:msg) rendezvous;
        Option.iter (fun c -> Cancel.cancel c ~reason:msg) cancel
      end;
      fun () -> raise (Step_failure.Error f)


(* Stage one node on the coordinating thread: gather inputs, decide dead
   propagation, build the kernel context. Everything the returned
   [Offload] thunk touches is either private to it or mutex-protected
   (resources, queues, rendezvous, tracer), so it may run on a worker
   domain. *)
let stage_node st (g, (it : iter)) =
  let p = st.plan in
  let n = p.p_nodes.(g) in
  let inputs = gather_inputs st g it in
  let any_dead =
    Array.exists Value.is_dead inputs
    || it.flags.(p.p_local.(g)) land dead_control <> 0
  in
  match p.p_kind.(g) with
  | (Plain | Enter | Exit | Next_iteration) when any_dead ->
      Scheduler.Finish
        (fun () ->
          finish_node st g it (Array.make p.p_nouts.(g) Value.Dead))
  | _ ->
      let rng =
        Rng.create
          (st.seed
          + (st.step_id * 1_000_003)
          + (n.Node.id * 7_919)
          + (it.index * 104_729))
      in
      (* In-place grants: a declared May_alias pair is granted when the
         input endpoint is planner-owned, poolable (no retaining
         consumer), this node is its sole remaining reader, and it is
         neither fetched nor already handed away. Staging and completion
         both run on the coordinating thread, so refcount 1 here means
         every other consumer's kernel has fully finished reading. *)
      let grants =
        match p.p_aliases.(g) with
        | _ when not p.p_planning -> []
        | [] -> []
        | decls ->
            let tracked = p.p_tracked.(g) in
            let poolable = p.p_frames.(it.inst.frame).fl_poolable in
            let used_in = ref [] and used_out = ref [] in
            List.filter
              (fun (i, o) ->
                (not (List.mem i !used_in))
                && (not (List.mem o !used_out))
                && i < Array.length tracked
                &&
                let a = tracked.(i) in
                let ok =
                  a >= 0 && poolable.(a)
                  && it.rc.(a) = 1
                  && (not it.pinned.(a))
                  && (not it.transferred.(a))
                  &&
                  match inputs.(i) with
                  | Value.Tensor t -> Dtype.is_floating (Tensor.dtype t)
                  | _ -> false
                in
                if ok then begin
                  it.transferred.(a) <- true;
                  live_sub st (Value.byte_size inputs.(i));
                  Mem_plan.count_grant ();
                  used_in := i :: !used_in;
                  used_out := o :: !used_out
                end;
                ok)
              decls
      in
      let ctx =
        {
          Kernel.node = n;
          inputs;
          resources = st.resources;
          rendezvous = st.rendezvous;
          rng;
          step_id = st.step_id;
          cancel = st.cancel;
          grants;
          var_snapshot = st.var_snapshot;
        }
      in
      let kernel = resolve_kernel p g in
      Scheduler.Offload
        (fun () ->
          offload_kernel ~tracer:st.tracer ~rendezvous:st.rendezvous
            ~cancel:st.cancel ~step_id:st.step_id
            ~live_of:(fun () -> !(st.live))
            n kernel ctx
            ~finish:(fun outputs -> finish_node st g it outputs))

(* ------------------------------------------------------------------ *)
(* Step execution                                                       *)
(* ------------------------------------------------------------------ *)

let execute plan ~feeds ~fetches ~resources ?rendezvous ?tracer ?cancel
    ?(seed = 0) ?(step_id = 0) ?var_snapshot () =
  let p = plan in
  let st =
    {
      plan;
      resources;
      rendezvous;
      tracer;
      cancel;
      seed;
      step_id;
      var_snapshot;
      live = ref 0;
      sched = None;
    }
  in
  (* Fetched endpoints are read from the root frame's iteration 0. *)
  let root_slot (e : Node.endpoint) =
    match Hashtbl.find_opt p.p_index e.node_id with
    | Some g when p.p_value_frame.(g) = 0 && e.index < p.p_nouts.(g) ->
        Some (p.p_slot.(g) + e.index)
    | _ -> None
  in
  let pinned = Array.make p.p_frames.(0).fl_slots false in
  List.iter
    (fun e -> Option.iter (fun a -> pinned.(a) <- true) (root_slot e))
    fetches;
  let root = new_instance st 0 None ~pinned in
  let ops =
    {
      Scheduler.classify = (fun (g, _) -> p.p_cls.(g));
      stage = stage_node st;
      run_blocking =
        (fun task ->
          match stage_node st task with
          | Scheduler.Finish k -> k ()
          | Scheduler.Offload run -> (run ()) ());
      poll_recv =
        (fun (g, it) ->
          match rendezvous with
          | None -> None
          | Some r -> (
              match
                Rendezvous.try_recv r
                  ~key:(recv_rendezvous_key ~step_id p.p_nodes.(g))
              with
              | Some v ->
                  Some
                    (fun () ->
                      trace tracer p.p_nodes.(g) ~step_id
                        ~bytes_of:(fun () -> Value.byte_size v)
                        (fun () -> ());
                      finish_node st g it [| v |])
              | None -> None));
      rendezvous;
      cancel;
    }
  in
  let sched = Scheduler.create p.p_scheduler ops in
  st.sched <- Some sched;
  (* Seed feeds, then sources, then the fed values' consumers. *)
  let fed_outputs =
    List.filter_map
      (fun ((e : Node.endpoint), v) ->
        match Hashtbl.find_opt p.p_index e.node_id with
        | Some g
          when p.p_fed.(g) && root.flags.(p.p_local.(g)) land scheduled = 0 ->
            root.flags.(p.p_local.(g)) <- scheduled;
            Some (g, Array.make p.p_nouts.(g) v)
        | _ -> None)
      (List.rev feeds)
  in
  Array.iteri
    (fun g fed ->
      if fed && root.flags.(p.p_local.(g)) land scheduled = 0 then
        raise (invalid ("missing feed for node " ^ p.p_nodes.(g).Node.name)))
    p.p_fed;
  (* Sources: invariant nodes never live in the root frame. *)
  Array.iteri
    (fun g f ->
      if f = 0 && (not p.p_fed.(g)) && root.pending.(p.p_local.(g)) = 0 then
        schedule st g root)
    p.p_frame;
  (* Whatever the step's fate, the process-wide gauges must not keep
     counting this step's bytes, and the pool counters get synced. *)
  Fun.protect
    ~finally:(fun () ->
      Mem_plan.live_sub !(st.live);
      st.live := 0;
      Mem_plan.sync_pool_metrics ())
    (fun () ->
      List.iter (fun (g, outputs) -> finish_node st g root outputs) fed_outputs;
      (* Recvs are retried non-blockingly so one pending value never
         wedges the partition while other cross-device values are
         already here (the polling lives in {!Scheduler.drive}). *)
      Scheduler.drive sched;
      List.map
        (fun (e : Node.endpoint) ->
          match Option.map (fun a -> root.values.(a)) (root_slot e) with
          | Some v when not (Value.is_dead v) -> v
          | _ ->
              raise
                (Step_failure.error
                   (Step_failure.Fetch_failed
                      (Printf.sprintf
                         "fetch %s:%d was not produced (dead value or \
                          incomplete subgraph?)"
                         (Graph.get p.p_graph e.node_id).Node.name e.index))))
        fetches)
