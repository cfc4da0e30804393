(** Deterministic fault injection for recovery testing.

    Disabled (the default), every entry point is a no-op costing one
    atomic read — production behaviour is untouched.  Enabled via
    {!configure}, each decision is a pure function of (seed, site
    string): identical across runs, scheduling orders and worker-domain
    counts, which preserves the engine's cross-[--jobs] determinism.

    Sites are chosen by the instrumented code; the engine uses
    ["engine.task:<index>:<attempt>"] and budgets consult
    {!starvation} with their creation label. *)

(** Raised by {!inject} when the site's raise draw fires. *)
exception Injected of string

(** The three shapes a {!disk} commit fault takes: the filesystem is
    full ([Enospc]), the write lands partially ([Short_write]), or the
    data never reaches stable storage ([Fsync_fail]).  Which one a
    firing site gets is itself a pure draw on the site string. *)
type disk_fault = Enospc | Short_write | Fsync_fail

type config = {
  seed : int;
  raise_rate : float;  (** probability an {!inject} site raises *)
  spin_rate : float;  (** probability an {!inject} site busy-spins first *)
  spin_iters : int;  (** busy-loop iterations of a simulated slow worker *)
  starve_rate : float;  (** probability a budget is starved at creation *)
  starve_steps : int;  (** step allowance of a starved budget *)
  corrupt_rate : float;
      (** probability a {!corruption} site yields a corruption seed *)
  disk_rate : float;  (** probability a {!disk} site fails its commit *)
}

(** Install a fault configuration (process-wide, atomically). *)
val configure :
  ?raise_rate:float ->
  ?spin_rate:float ->
  ?spin_iters:int ->
  ?starve_rate:float ->
  ?starve_steps:int ->
  ?corrupt_rate:float ->
  ?disk_rate:float ->
  seed:int ->
  unit ->
  unit

(** Remove the configuration; all sites become no-ops again. *)
val clear : unit -> unit

val active : unit -> bool
val config : unit -> config option

(** [with_faults ~seed ... f] runs [f] with faults configured, clearing
    them afterwards even if [f] raises. *)
val with_faults :
  ?raise_rate:float ->
  ?spin_rate:float ->
  ?spin_iters:int ->
  ?starve_rate:float ->
  ?starve_steps:int ->
  ?corrupt_rate:float ->
  ?disk_rate:float ->
  seed:int ->
  (unit -> 'a) ->
  'a

(** Fire the fault point named [site]: possibly busy-spin (slow-worker
    simulation), possibly raise {!Injected}. *)
val inject : string -> unit

(** [starvation site] is [Some steps] when a budget created at [site]
    should be starved down to [steps] steps, [None] otherwise. *)
val starvation : string -> int option

(** [corruption site] is [Some seed] when the site's corruption draw
    fires: the caller should deliberately corrupt the artifact it is
    about to publish (or, for the certification harness, the solution it
    is about to certify) using the returned deterministic seed.  [None]
    when disabled or the draw does not fire.  Like every other site, the
    decision is a pure function of (seed, site). *)
val corruption : string -> int option

(** [disk site] is [Some fault] when the site's disk draw fires: the
    instrumented cache-commit path must fail in the returned shape
    (report [ENOSPC], land a short write, or fail the fsync) and must
    {b not} publish the entry.  Pure in (seed, site). *)
val disk : string -> disk_fault option

(** Stable lowercase rendering for diagnostics ([enospc],
    [short-write], [fsync-fail]). *)
val disk_fault_name : disk_fault -> string
