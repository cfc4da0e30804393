(** One supervised shard: an [ipcp serve --listen] worker process plus
    the router's client connection to it.

    The handle owns the process and the socket, nothing else — inflight
    bookkeeping, routing, and failover live in {!Router}.  A shard's
    stdout/stderr are pointed at the supervisor's stderr (a socket-mode
    server never speaks on stdout, and its stderr accounting lines —
    e.g. [E-LOAD-GONE] — must surface), so the supervisor's stdout
    stays a pure response-frame stream. *)

type t

val pid : t -> int

(** The connected socket (closed by {!abandon} and {!terminate}).  The
    router writes requests to it through a {!Transport.Outbuf}, so a
    stopped shard never blocks the router. *)
val fd : t -> Unix.file_descr

(** Spawn the worker process ([binary serve --listen ADDR args]) and
    connect to it, retrying the connect until the listener is up or
    [connect_timeout_ms] expires.  Raises [Failure] when the process
    dies before accepting or the timeout expires. *)
val start :
  binary:string ->
  addr:Transport.addr ->
  args:string list ->
  connect_timeout_ms:int ->
  t

(** Tear down the connection and note the process gone; reaps the child
    (it is already dead when this is called on the EOF path, so the wait
    does not block meaningfully). *)
val abandon : t -> unit

(** Graceful stop: close the connection (the shard sees client EOF),
    send SIGTERM, and reap.  Escalates to SIGKILL if the shard has not
    exited within [patience_ms] (default ~5s) — the router's heartbeat
    ejection passes a short fuse, since a shard being ejected is by
    definition not responding and will likely need the escalation. *)
val terminate : ?patience_ms:int -> t -> unit
