(** Capability record linking a session to an out-of-process runtime.

    [Octf.Session] cannot depend on [Octf_net] (the network library
    depends on this one), so [Octf_net.Runtime.runner] builds this
    record and [Session.create] consumes it from [Config.remote]. With
    a runner installed, the session executes partitions placed on
    {!is_local} devices in-process as usual, shares the runner's {!rendezvous} for
    all tensor traffic (its route hook forwards cross-process sends over
    TCP), and dispatches each remote task's partitions through
    {!run_partitions} — a blocking Run_step RPC. *)

type runner = {
  is_local : Device.t -> bool;
      (** does this device's (job, task) live in the current process? *)
  rendezvous : Rendezvous.t;
      (** process-global routed rendezvous shared by every step; never
          aborted (per-step cleanup uses [Cancel] tokens and
          {!Rendezvous.drop_step}) *)
  run_partitions :
    job:string ->
    task:int ->
    step_id:int ->
    feeds:(Node.endpoint * Octf_tensor.Tensor.t) list ->
    fetches:Node.endpoint list ->
    targets:int list ->
    deadline:float option ->
    cancel:Cancel.t option ->
    ((Node.endpoint * Value.t) list, Step_failure.t) result;
      (** run the partitions owned by [(job, task)] remotely under the
          caller's [step_id]; blocks until the peer's Step_done or a
          structured failure (transport loss, deadline, remote error) *)
  retire_step : step_id:int -> unit;
      (** called by the session when a step finishes (success or
          failure): drops the step's leaked rendezvous entries and
          arranges for late tensor frames under that id to be
          discarded *)
}
