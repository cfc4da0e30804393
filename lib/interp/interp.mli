(** Reference interpreter for resolved MiniFort programs: FORTRAN-77
    semantics (by-reference arguments, common storage, column-major arrays,
    truncating integer arithmetic, DO bounds evaluated once).

    It serves as the test suite's soundness oracle: procedure-entry
    snapshots record the values of scalar formals and globals so every
    CONSTANTS fact can be checked against actual executions, and printed
    output lets transformed programs be compared to their originals. *)

open Ipcp_frontend

type value = Vint of int | Vreal of float | Vbool of bool

val pp_value : value Fmt.t
val equal_value : value -> value -> bool

(** Values of scalar formals (by position) and scalar globals (by
    {!Prog.global_key}) at one procedure entry; [None] = still
    uninitialized. *)
type entry_snapshot = {
  es_proc : string;
  es_formals : (int * value option) list;
  es_globals : (string * value option) list;
}

type outcome =
  | Finished
  | Out_of_fuel
  | Failed of string  (** runtime error (uninitialized read, bounds, ...) *)

type result = {
  outputs : string list;  (** printed lines, in order *)
  entries : entry_snapshot list;  (** procedure entries, in order *)
  steps : int;
  outcome : outcome;
}

(** The default [fuel] of {!run}: 2,000,000 steps. *)
val default_fuel : int

(** Run the main program.  [fuel] (default {!default_fuel}) bounds
    interpreter steps; [input] feeds [read] statements (exhausted input
    reads 0); [trace_entries] controls whether entry snapshots are
    recorded.

    Names are resolved once per run: each procedure is compiled into
    closures over an array frame when it is first called.  [watch] (if
    given) is asked once per expression id while its procedure compiles;
    [Some f] makes [f] observe every evaluation of that expression, in
    order, and [None] leaves the expression unobserved at no cost — the
    certifier watches exactly the uses and branches it has claims on.
    Adds the number of procedures compiled to the telemetry counter
    [interp.procs_resolved]. *)
val run :
  ?fuel:int ->
  ?input:int list ->
  ?trace_entries:bool ->
  ?watch:(int -> (value -> unit) option) ->
  Prog.t ->
  result
