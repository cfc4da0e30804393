(** The serving tier's readings and its one [ipcp.health/1] assembler.

    A role ([ipcp serve], [ipcp route]) declares each of its readings
    once, by name, in a {!schema}; a {!table} built from schemas holds
    one atomic cell per declared name, so every declared reading appears
    in health at 0 until it is bumped, and bumping a name no schema
    declared raises instead of adding a key.  {!snapshot} builds every
    health document: in-process server, shard, and the router's merge
    of its shards' documents. *)

type schema

val schema : unit -> schema

(** [counter s name] declares a monotone counter, reported under
    ["counters"], and returns [name]; [gauge] declares a level reported
    under ["gauges"].  Raises [Invalid_argument] on a name [s] already
    declares. *)
val counter : schema -> string -> string

val gauge : schema -> string -> string

type t

(** A zeroed table of every reading the schemas declare.  Safe to bump
    and read from several domains at once. *)
val table : schema list -> t

(** [add t name n] adds [n] to a declared reading; [bump] adds 1.  Both
    raise [Invalid_argument] on a name no schema of [t] declared. *)
val add : t -> string -> int -> unit

val bump : t -> string -> unit

(** [snapshot ?shards ?out ~gauges ?counters t] is the [ipcp.health/1]
    document of [t]'s readings plus the live [gauges] and the extra
    [counters] ([[]] by default), with each section of the [shards]
    documents summed by name in front.  The process's own gauges are
    mirrored into the ambient profiling sink; with [out] the document is
    also written to that path as one line. *)
val snapshot :
  ?shards:Ipcp_telemetry.Json.t list ->
  ?out:string ->
  gauges:(string * int) list ->
  ?counters:(string * int) list ->
  t ->
  Ipcp_telemetry.Json.t
