(** Call-graph diff between two program versions.

    Procedures are matched by name and compared by {e semantic} hash
    ({!Hashing.semantic}), so transformations {!Ipcp_certify.Metamorph}
    certifies as meaning-preserving (variable α-renaming, unit
    reordering) yield an empty diff.  Edges are deduplicated
    (caller, callee) name pairs.

    [compute a b] and [compute b a] are mirror images: added/removed
    lists swap, [changed_procs] is identical. *)

open Ipcp_frontend
open Ipcp_core

type t = {
  added_procs : string list;  (** sorted *)
  removed_procs : string list;  (** sorted *)
  changed_procs : string list;
      (** present in both versions with different semantic hashes; sorted *)
  added_edges : (string * string) list;  (** sorted (caller, callee) pairs *)
  removed_edges : (string * string) list;
}

val is_empty : t -> bool

(** [sorted_diff a b] is [a] without the elements of [b], for lists
    sorted by [compare] without duplicates: one merge walk, linear in
    [|a| + |b|]. *)
val sorted_diff : 'a list -> 'a list -> 'a list

(** Diff from prebuilt call graphs and semantic-hash tables (the
    incremental session already has all four). *)
val compute_with :
  old_cg:Callgraph.t ->
  new_cg:Callgraph.t ->
  old_sem:(string, string) Hashtbl.t ->
  new_sem:(string, string) Hashtbl.t ->
  t

(** [compute old_prog new_prog] — convenience wrapper building the call
    graphs and hash tables itself. *)
val compute : Prog.t -> Prog.t -> t

val pp : t Fmt.t
