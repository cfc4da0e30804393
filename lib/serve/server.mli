(** The long-lived request-processing layer over the analyzer pipeline.

    [run] reads newline-delimited JSON job requests ({!Request}) from a
    file descriptor (stdin, a FIFO, a file), executes them on a pool of
    worker domains, and writes one response frame per request to the
    output channel.  Durability properties:

    {ul
    {- {b conservation}: every submitted request line gets exactly one
       terminal response — [ok], [error], [shed], [rejected],
       [quarantined] or [invalid] — at every worker count;}
    {- {b backpressure}: admission goes through a bounded {!Bqueue};
       overflow sheds loudly (typed frames), never blocks, never drops
       silently;}
    {- {b supervision}: a crashing job (including fault-injected crashes
       at site [serve.worker:<seq>:<k>]) fails only its own request; the
       worker restarts on a capped exponential backoff with
       deterministic seeded jitter;}
    {- {b quarantine}: an input that crashes workers [breaker_threshold]
       times consecutively — or whose served solution fails online
       certification even once — is circuit-broken: later requests for
       it answer [quarantined] without executing, it surfaces in the
       health snapshot, and with [breaker_reset_after > 0] the breaker
       goes half-open after that many denials, letting one probe request
       through (success closes the breaker, failure re-opens it);}
    {- {b online certification}: a seeded-deterministic
       [certify_sample] fraction of analyze/analyze-delta responses —
       plus, by default, {e every} response built from a deserialized
       artifact-cache hit or a session restored from cached blobs — is
       re-checked by {!Ipcp_certify.Certify} before emission; a failing
       response is never sent as [ok] but becomes a typed
       [certification_failed] frame ({!Err}) and trips the breaker.
       When the fault site [serve.solution:<seq>] is armed, the solved
       result is deliberately corrupted {e before} rendering, which is
       how the fuzz harness proves corrupted solutions cannot escape;}
    {- {b graceful drain}: SIGTERM/SIGINT (or end of input) finishes
       in-flight and queued work, answers [rejected] ([E-LOAD-DRAIN])
       to lines that were read but not yet admitted and to lines already
       readable on the input when the stop arrived, flushes, and returns
       0;}
    {- {b byte-identity}: responses carry {!Jobs} renderings — the same
       strings a direct CLI run prints — and neither the artifact cache
       ({!Cache}) nor the incremental path changes them, warm or cold;}
    {- {b incrementality}: [analyze-delta] requests serve from a
       per-session-name pinned {!Ipcp_incr.Incr} session, re-solving
       only the dependence cone of what changed since the session's
       previous version; sessions persist as per-procedure entries in
       the artifact cache and are restored after a restart.}} *)

type config = {
  workers : int;  (** worker domains (at least 1) *)
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  breaker_threshold : int;
      (** consecutive crashes before an input is quarantined; 0 disables *)
  breaker_reset_after : int;
      (** half-open policy: after this many [quarantined] denials the
          next request for the input runs as a probe — success closes
          the breaker, failure re-opens it; 0 quarantines forever *)
  cache_dir : string option;  (** artifact cache root; [None] disables *)
  cache_max_entries : int option;
      (** cache entry cap, enforced by mtime-LRU eviction after each
          store; [None] leaves the cache unbounded *)
  certify_sample : float;
      (** online-certify this fraction of analyze/analyze-delta
          responses before emission, chosen deterministically per
          (seed, request sequence number); 0 disables sampling, 1.0
          certifies everything *)
  certify_cache_hits : bool;
      (** online-certify every response built from a deserialized cache
          artifact or a restored session, whatever the sample rate —
          deserialization is where silent corruption enters ([true] in
          {!default_config}) *)
  backoff_base_ms : int;  (** first restart delay *)
  backoff_cap_ms : int;  (** exponential backoff ceiling *)
  seed : int;
      (** seed of the backoff jitter (deterministic per (seed, slot,
          restart)) and of the certification sample (per (seed, seq)) *)
  health_out : string option;
      (** write a final [ipcp.health/1] snapshot to this path after the
          drain barrier, when every counter is settled — unlike
          in-stream [health] answers, which race the workers *)
  read_timeout_ms : int;
      (** socket mode only: refuse a connection ([E-REQ-TIMEOUT]) that
          keeps a partial request line buffered for longer than this —
          the slow-loris guard; 0 disables.  Stdio input has no read
          deadline *)
  max_line : int;
      (** refuse the first request line longer than this many bytes with
          an [invalid] frame typed [E-REQ-OVERSIZE] and stop reading
          that stream — the connection on a socket, standard input (or
          [--input]) on stdio, which then drains and returns; [<= 0]
          leaves lines unchecked *)
  prepare_memo : int;
      (** capacity of the in-process memo of prepared (analysis-
          independent) artifacts, keyed like the disk cache — this is
          what batches same-program-different-config request runs into
          one [prepare] + N [solve]; 0 disables.  Memo hits decode a
          private copy per request and do {e not} count as cache hits
          for the always-certify-on-cache-hit policy (nothing crossed a
          process boundary), so response statuses are identical with the
          memo on or off *)
}

val default_config : config

(** The certification sampling predicate: whether the response to
    request sequence number [seq] is online-certified at [rate] under
    [seed].  A pure function — never of worker count, scheduling, or
    wall clock — so the sampled set is reproducible; exposed for the
    determinism harnesses. *)
val certify_sampled : seed:int -> rate:float -> seq:int -> bool

(** [contains ~sub s]: whether [sub] occurs in [s] — the match the
    test-only input hooks apply to input keys. *)
val contains : sub:string -> string -> bool

(** The per-response corruption site consulted after solving and before
    rendering (["serve.solution:<seq>"]): when {!Ipcp_support.Fault}
    arms it, the served solution really is corrupted, and only online
    certification keeps it from reaching the client as [ok]. *)
val solution_fault_site : int -> string

(** The canonical terminal frames the serving tier answers without
    executing anything — exported so the shard router produces
    byte-identical refusals to a single-process server. *)

val quarantined_response : Request.t -> Request.response

val invalid_response : Request.parse_error -> Request.response

(** [reject_drained line emit] hands [emit] the typed [rejected]
    ([E-LOAD-DRAIN]) frame owed to a request line that was read but
    never admitted because a stop was signalled first; blank lines owe
    nothing. *)
val reject_drained : string -> (Request.response -> unit) -> unit

(** The per-input circuit breaker, shared by the in-process worker pool
    and the shard router.  [decide] answers [`Run probe] or [`Deny]
    (counting the denial); [note ~crashed:true] charges one crash,
    [note ~crashed:false] closes the breaker; [trip] opens it at once.
    With [reset_after > 0] the breaker goes half-open after that many
    denials and lets one probe through ([`Run true]); the router uses
    [reset_after = 0], a plain crash count.  [threshold <= 0] disables
    it.  Thread-safe. *)
module Breaker : sig
  type t

  val create : threshold:int -> reset_after:int -> t
  val decide : t -> string -> [ `Run of bool | `Deny ]
  val note : t -> string -> crashed:bool -> unit
  val trip : t -> string -> unit

  (** A probe was shed before it ran: let the breaker probe again. *)
  val release_probe : t -> string -> unit

  (** (inputs quarantined, entries) *)
  val counts : t -> int * int
end

(** The response ledger, shared by the stdio server, each socket
    connection and the shard router's stdout.  [owe] records one
    submitted request line, [respond] writes one terminal frame (flushed
    at once) and settles one debt, so an owner that has answered
    everything it admitted has [owing = 0].  The first failed write
    latches the outlet dead: later frames are dropped but still settle
    their debt.  [close] flushes a channel outlet and returns its
    owner's exit code: 0, or {!Jobs.exit_input} once the stream died.
    Thread-safe. *)
module Outlet : sig
  type t

  val channel : out_channel -> t
  val owe : t -> unit
  val respond : t -> Request.response -> unit
  val owing : t -> int
  val close : t -> int
end

(** Restart delay of a supervised slot's [restart]-th consecutive crash:
    capped exponential backoff plus deterministic jitter, a pure
    function of (seed, slot, restart).  Used for worker domains and
    shard processes alike. *)
val backoff_ms :
  base:int -> cap:int -> seed:int -> slot:int -> restart:int -> int

(** Run the serve loop to completion (end of input, an over-long line,
    or a termination signal).  [input] is one connection of the
    {!Transport.Loop} event loop, with the socket mode's line framing
    and [max_line] cap; [output] stays a flushed channel, never switched
    to [O_NONBLOCK].  Returns the process exit code: 0 after a clean
    drain, {!Jobs.exit_input} when the response stream died (e.g. a
    broken pipe).  Signal handlers are installed for the duration and
    restored on return. *)
val run :
  ?config:config -> input:Unix.file_descr -> output:out_channel -> unit -> int

(** Serve over a listening socket ({!Transport.addr}) instead of stdio:
    the same event loop as {!run} accepts concurrent clients, frames their
    request lines, and feeds the same admission machinery and worker
    pool as {!run}; each response is written back on the connection that
    submitted its request.  Additional durability properties on top of
    {!run}'s:

    {ul
    {- {b per-connection conservation}: a connection closes only after
       every line it submitted has its terminal frame (its share of the
       conservation ledger reaches zero);}
    {- {b crash isolation from clients}: a client that disconnects
       before its response is written ([EPIPE]/[ECONNRESET]) costs
       nothing but that response — the loss is counted
       ([serve.client_gone]) and logged to stderr as a typed
       [E-LOAD-GONE] accounting frame, and the server lives on;}
    {- {b slow-loris defense}: a request line longer than
       [config.max_line] is refused with [E-REQ-OVERSIZE], a connection
       holding a partial line longer than [config.read_timeout_ms] is
       refused with [E-REQ-TIMEOUT]; both refusals are terminal frames
       on the wire before the close, so conservation holds for them
       too;}
    {- {b graceful drain}: SIGTERM/SIGINT stops accepting, answers typed
       drain rejections for lines already in flight, finishes queued
       work, closes every connection, and removes a Unix socket file.}}

    Returns the exit code (0; client failures never fail the server).
    The test-only [IPCP_SERVE_KILL_INPUT] environment hook (also honored
    by {!run}) SIGKILLs the whole process when a matching input key
    executes — how the shard-failover harnesses fell one shard
    deterministically. *)
val run_listen : ?config:config -> addr:Transport.addr -> unit -> int
