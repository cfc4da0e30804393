(** Transport for the serving layer: address notation, listener and
    client-connection setup, the per-connection line framing and write
    buffering, and the one event loop ({!Loop}) that stdio serve, socket
    serve and the shard router all run on.

    Addresses are written [unix:PATH] (a filesystem socket) or
    [tcp:HOST:PORT]; a bare string containing [/] is taken as a Unix
    socket path.  The framing splits a byte stream into
    newline-delimited request lines while enforcing a per-line length
    cap: the first line to exceed it poisons the framer (one
    {!Framing.Oversize} event, then silence), which the server turns
    into a structured [E-REQ-OVERSIZE] refusal and a close — buffering
    an unbounded line for a client that never sends a newline is exactly
    the slow-loris memory attack the cap exists to stop. *)

type addr =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of string * int  (** host (name, numeric, or ["*"] = any) and port *)

val parse_addr : string -> (addr, string) result
val addr_to_string : addr -> string

(** Bind and listen.  A stale Unix socket file left by a dead process is
    removed first (connecting to it can only ever fail).  TCP listeners
    set [SO_REUSEADDR].  Raises [Unix.Unix_error] when the address
    cannot be bound. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

(** Connect as a client.  Raises [Unix.Unix_error] on refusal. *)
val connect : addr -> Unix.file_descr

(** Remove the filesystem artifact of a Unix-socket listener
    (best-effort; TCP addresses are a no-op). *)
val unlink_addr : addr -> unit

module Framing : sig
  type t

  type event =
    | Line of string  (** one complete request line (newline stripped) *)
    | Oversize of int
        (** the buffered line exceeded [max_line] at this many bytes;
            terminal — the framer ignores all further input *)

  (** [max_line <= 0] leaves the length unchecked. *)
  val create : max_line:int -> t

  val feed : t -> string -> event list

  (** The trailing unterminated line at EOF, if any ([feed] order: a
      client that closes without a final newline still submitted that
      line).  Resets the buffer. *)
  val finish : t -> string option

  (** A partial line is buffered — the state the read deadline guards. *)
  val partial : t -> bool
end

(** The write-side twin of {!Framing}: response frames to a socket peer
    survive short/partial writes.  The fd is switched to nonblocking at
    {!Outbuf.create}; a write the kernel only partially accepts
    ([EAGAIN]/[EWOULDBLOCK] mid-frame) buffers its unwritten tail, and
    the select loop resumes it with {!Outbuf.service} when the fd turns
    writable — frames are never torn, never reordered, and a worker
    domain never blocks on a slow client.  A tail that outgrows the cap
    (default 8 MiB) or any hard write error latches the buffer dead:
    the peer is treated as gone and the bytes are dropped (the caller
    does its E-LOAD-GONE accounting). *)
module Outbuf : sig
  type t

  (** Takes ownership of write-side concerns of [fd] (sets
      [O_NONBLOCK]).  [cap] bounds the buffered tail in bytes. *)
  val create : ?cap:int -> Unix.file_descr -> t

  (** Append one whole frame and push as much as the kernel accepts.
      [`Ok] = fully written, [`Buffered] = a tail remains (watch the fd
      for writability and call {!service}), [`Dead] = the peer is gone
      (this frame, and any tail, were dropped). *)
  val write : t -> string -> [ `Ok | `Buffered | `Dead ]

  (** Resume the buffered tail (call when select reports the fd
      writable).  Same verdicts as {!write}. *)
  val service : t -> [ `Ok | `Buffered | `Dead ]

  (** A tail is buffered and the peer is still believed alive — the
      condition under which the fd belongs in the select write set. *)
  val pending : t -> bool

  val dead : t -> bool
end

(** The serving layer's one event loop: stdio serve, socket serve and
    the shard router all run on it.  A connection is an fd with a
    {!Framing} reader, an optional {!Outbuf} writer, and callbacks for
    its lines and for the end of its input.  One select with a 50 ms
    tick waits on every reading connection, every listener and every
    connection with a buffered write tail; EINTR and EAGAIN are empty
    rounds.  The loop never switches an fd to [O_NONBLOCK] itself (only
    {!Outbuf.create} does), so stdin and stdout stay as the shell left
    them. *)
module Loop : sig
  type t
  type conn

  (** Why a connection stopped reading.  [Eof] delivers a trailing
      unterminated line to [on_line] first; [Oversize] and [Timeout] are
      the {!Framing} cap and the read deadline. *)
  type ending = Eof | Broken | Oversize of int | Timeout

  val create : unit -> t

  (** Register a connection.  [max_line] caps its lines (see
      {!Framing.create}); [read_timeout_ms > 0] ends it with [Timeout]
      when a partial line stays buffered that long; [out] is serviced
      whenever the fd turns writable, and [on_gone] runs when that
      finds the peer dead.  [on_end] runs exactly once, when reading
      stops for any reason other than {!remove}. *)
  val add :
    t ->
    ?max_line:int ->
    ?out:Outbuf.t ->
    ?read_timeout_ms:int ->
    ?on_gone:(unit -> unit) ->
    on_line:(string -> unit) ->
    on_end:(ending -> unit) ->
    Unix.file_descr ->
    conn

  (** Forget a connection without calling [on_end] (the fd stays
      open). *)
  val remove : t -> conn -> unit

  (** Accept connections on a listening socket, handing each accepted
      fd to [on_accept]. *)
  val listen :
    t -> Unix.file_descr -> on_accept:(Unix.file_descr -> unit) -> unit

  val fd : conn -> Unix.file_descr
  val reading : conn -> bool

  (** A write tail is buffered for a live peer. *)
  val pending : conn -> bool

  (** Append one frame to the connection's {!Outbuf}; [false] when it
      has none or the peer is gone. *)
  val send : conn -> string -> bool

  (** Run rounds until [until ()] holds, calling [tick] after each. *)
  val run : t -> tick:(unit -> unit) -> until:(unit -> bool) -> unit

  (** Deliver what the connection has readable right now (at most
      1 MiB), without blocking and without ending it. *)
  val drain : t -> conn -> unit

  (** {!drain}, then end the connection with [Eof] — the graceful stop
      of a client stream. *)
  val finish : t -> conn -> unit

  (** Service buffered write tails until none remain or [within]
      seconds pass. *)
  val flush : t -> within:float -> unit

  (** Install SIGTERM/SIGINT handlers that raise the stop flag (cleared
      on entry) for the duration of the callback, then restore the
      previous handlers. *)
  val with_signals : (unit -> 'a) -> 'a

  val stopping : unit -> bool
end
