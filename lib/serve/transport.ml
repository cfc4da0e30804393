type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  let colon_split s =
    match String.rindex_opt s ':' with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let tcp host port_s =
    match int_of_string_opt port_s with
    | Some p when p >= 0 && p <= 65535 ->
      Ok (Tcp ((if host = "" then "*" else host), p))
    | _ -> Error (Printf.sprintf "bad TCP port %S" port_s)
  in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "empty unix socket path" else Ok (Unix_sock path)
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    match colon_split (String.sub s 4 (String.length s - 4)) with
    | Some (host, port) -> tcp host port
    | None -> Error (Printf.sprintf "bad TCP address %S (want tcp:HOST:PORT)" s)
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    Error
      (Printf.sprintf
         "bad listen address %S (want unix:PATH or tcp:HOST:PORT)" s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      if host = "*" then Unix.inet_addr_any
      else if host = "localhost" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found -> Unix.inet_addr_loopback)
    in
    Unix.ADDR_INET (ip, port)

let domain_of = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let unlink_addr = function
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let listen ?(backlog = 64) addr =
  (* a stale socket file from a dead listener can only ever refuse *)
  unlink_addr addr;
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_sock _ -> ());
  (try Unix.bind fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd backlog;
  fd

let connect addr =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

module Framing = struct
  type t = { buf : Buffer.t; max_line : int; mutable poisoned : bool }

  type event = Line of string | Oversize of int

  let create ~max_line = { buf = Buffer.create 256; max_line; poisoned = false }

  let feed t chunk =
    if t.poisoned then []
    else begin
      Buffer.add_string t.buf chunk;
      let data = Buffer.contents t.buf in
      let events = ref [] in
      let over n =
        t.poisoned <- true;
        Buffer.clear t.buf;
        events := Oversize n :: !events
      in
      let rec go start =
        if not t.poisoned then
          match String.index_from_opt data start '\n' with
          | Some nl ->
            if t.max_line > 0 && nl - start > t.max_line then over (nl - start)
            else begin
              events := Line (String.sub data start (nl - start)) :: !events;
              go (nl + 1)
            end
          | None ->
            let rest = String.length data - start in
            if t.max_line > 0 && rest > t.max_line then over rest
            else begin
              Buffer.clear t.buf;
              Buffer.add_substring t.buf data start rest
            end
      in
      go 0;
      List.rev !events
    end

  let finish t =
    let line =
      if t.poisoned || Buffer.length t.buf = 0 then None
      else Some (Buffer.contents t.buf)
    in
    Buffer.clear t.buf;
    line

  let partial t = (not t.poisoned) && Buffer.length t.buf > 0
end

module Outbuf = struct
  (* The write-side twin of [Framing]: a socket under pressure accepts
     only part of a frame (EAGAIN/EWOULDBLOCK mid-write on a nonblocking
     fd), and a frame must never be torn or reordered.  Writers append
     whole frames; whatever the kernel refuses is buffered and resumed
     by [service] when the select loop reports the fd writable.  All
     entry points take the internal mutex, so worker domains and the
     select loop can share one outbuf. *)
  type t = {
    ob_fd : Unix.file_descr;
    ob_mu : Mutex.t;
    ob_buf : Buffer.t;  (** the unwritten tail, oldest bytes first *)
    ob_cap : int;  (** tail cap; exceeding it declares the peer dead *)
    mutable ob_dead : bool;
  }

  let create ?(cap = 8 * 1024 * 1024) fd =
    Unix.set_nonblock fd;
    {
      ob_fd = fd;
      ob_mu = Mutex.create ();
      ob_buf = Buffer.create 256;
      ob_cap = cap;
      ob_dead = false;
    }

  let locked t f =
    Mutex.lock t.ob_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.ob_mu) f

  (* Push as much of the tail as the kernel accepts.  Call with the
     mutex held.  Leaves [ob_dead] latched on any hard write error. *)
  let drain_locked t =
    let data = Buffer.contents t.ob_buf in
    let len = String.length data in
    let pos = ref 0 in
    (try
       while !pos < len do
         let n = Unix.write_substring t.ob_fd data !pos (len - !pos) in
         if n = 0 then raise Exit;
         pos := !pos + n
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) | Exit -> ()
    | Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | Unix.Unix_error _ | Sys_error _ -> t.ob_dead <- true);
    if !pos > 0 then begin
      let rest = String.sub data !pos (len - !pos) in
      Buffer.clear t.ob_buf;
      Buffer.add_string t.ob_buf rest
    end;
    if t.ob_dead then Buffer.clear t.ob_buf

  let write t frame =
    locked t (fun () ->
        if t.ob_dead then `Dead
        else begin
          Buffer.add_string t.ob_buf frame;
          drain_locked t;
          if t.ob_dead then `Dead
          else if Buffer.length t.ob_buf = 0 then `Ok
          else if Buffer.length t.ob_buf > t.ob_cap then begin
            (* a peer that stopped reading while we owe it this much is
               gone for all practical purposes; latch rather than grow *)
            t.ob_dead <- true;
            Buffer.clear t.ob_buf;
            `Dead
          end
          else `Buffered
        end)

  let service t =
    locked t (fun () ->
        if not t.ob_dead then drain_locked t;
        if t.ob_dead then `Dead
        else if Buffer.length t.ob_buf = 0 then `Ok
        else `Buffered)

  let pending t = locked t (fun () -> (not t.ob_dead) && Buffer.length t.ob_buf > 0)

  let dead t = locked t (fun () -> t.ob_dead)
end

module Loop = struct
  (* Signal handlers may not allocate much and run on an arbitrary
     domain: they only flip this flag; the loop polls it every tick. *)
  let stop_flag = Atomic.make false
  let stopping () = Atomic.get stop_flag

  let with_signals f =
    Atomic.set stop_flag false;
    match Sys.os_type with
    | "Unix" ->
      let install s =
        Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
      in
      let old_term = install Sys.sigterm in
      let old_int = install Sys.sigint in
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigint old_int)
        f
    | _ -> f ()

  type ending = Eof | Broken | Oversize of int | Timeout

  type conn = {
    c_fd : Unix.file_descr;
    c_framer : Framing.t;
    c_out : Outbuf.t option;
    c_read_timeout : float;  (** seconds; 0 = no read deadline *)
    c_on_line : string -> unit;
    c_on_end : ending -> unit;
    c_on_gone : unit -> unit;
    mutable c_reading : bool;
    mutable c_live : bool;  (** still registered with the loop *)
    mutable c_partial_since : float option;
        (** when the buffered partial line began — the read deadline's
            clock, armed only while a line is pending *)
  }

  type t = {
    mutable conns : conn list;
    mutable listeners : (Unix.file_descr * (Unix.file_descr -> unit)) list;
    chunk : Bytes.t;
  }

  let create () = { conns = []; listeners = []; chunk = Bytes.create 65536 }

  let add t ?(max_line = 0) ?out ?(read_timeout_ms = 0) ?(on_gone = ignore)
      ~on_line ~on_end fd =
    let c =
      {
        c_fd = fd;
        c_framer = Framing.create ~max_line;
        c_out = out;
        c_read_timeout = float_of_int (max 0 read_timeout_ms) /. 1000.0;
        c_on_line = on_line;
        c_on_end = on_end;
        c_on_gone = on_gone;
        c_reading = true;
        c_live = true;
        c_partial_since = None;
      }
    in
    t.conns <- c :: t.conns;
    c

  let remove t c =
    c.c_live <- false;
    c.c_reading <- false;
    t.conns <- List.filter (fun c' -> c' != c) t.conns

  let listen t fd ~on_accept = t.listeners <- (fd, on_accept) :: t.listeners
  let fd c = c.c_fd
  let reading c = c.c_reading

  let pending c =
    match c.c_out with Some ob -> Outbuf.pending ob | None -> false

  let send c frame =
    match c.c_out with
    | Some ob -> Outbuf.write ob frame <> `Dead
    | None -> false

  (* The serving layer's only select.  An interrupted wait reports
     nothing ready: the loop just runs its next round, and a drain
     stops early (what it left unread was never submitted). *)
  let select reads writes timeout =
    match Unix.select reads writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

  let stop_reading c why =
    if c.c_reading then begin
      c.c_reading <- false;
      c.c_partial_since <- None;
      (* a final line without a trailing newline is still a line *)
      (if why = Eof then
         match Framing.finish c.c_framer with
         | Some l -> c.c_on_line l
         | None -> ());
      c.c_on_end why
    end

  let feed c bytes =
    List.iter
      (function
        | Framing.Line l -> c.c_on_line l
        | Framing.Oversize n -> stop_reading c (Oversize n))
      (Framing.feed c.c_framer bytes);
    c.c_partial_since <-
      (if c.c_reading && Framing.partial c.c_framer then
         match c.c_partial_since with
         | Some _ as since -> since
         | None -> Some (Unix.gettimeofday ())
       else None)

  (* One read from a readable fd.  [false] when nothing more will come
     from it this round. *)
  let read_once t c =
    match Unix.read c.c_fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 ->
      stop_reading c Eof;
      false
    | n ->
      feed c (Bytes.sub_string t.chunk 0 n);
      true
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      false
    | exception Unix.Unix_error _ ->
      stop_reading c Broken;
      false

  let service c =
    match c.c_out with
    | Some ob -> (
      match Outbuf.service ob with
      | `Dead -> c.c_on_gone ()
      | `Ok | `Buffered -> ())
    | None -> ()

  let accept fd on_accept =
    match Unix.accept ~cloexec:true fd with
    | peer, _ -> on_accept peer
    | exception
        Unix.Unix_error
          ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK ),
            _,
            _ ) ->
      ()

  let step t ~timeout =
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        match c.c_partial_since with
        | Some t0 when c.c_read_timeout > 0.0 && now -. t0 > c.c_read_timeout
          ->
          stop_reading c Timeout
        | _ -> ())
      t.conns;
    let readers = List.filter (fun c -> c.c_reading) t.conns in
    let writers = List.filter pending t.conns in
    let ready, writable =
      select
        (List.map fst t.listeners @ List.map (fun c -> c.c_fd) readers)
        (List.map (fun c -> c.c_fd) writers)
        timeout
    in
    List.iter
      (fun c -> if c.c_live && List.mem c.c_fd writable then service c)
      writers;
    List.iter
      (fun (fd, on_accept) -> if List.mem fd ready then accept fd on_accept)
      t.listeners;
    List.iter
      (fun c ->
        if c.c_reading && List.mem c.c_fd ready then ignore (read_once t c))
      readers

  let rec run t ~tick ~until =
    if not (until ()) then begin
      step t ~timeout:0.05;
      tick ();
      run t ~tick ~until
    end

  (* At most 16 chunks (1 MiB): a peer that keeps writing cannot hold
     a drain open. *)
  let drain t c =
    let rec go reads =
      if reads > 0 && c.c_reading then
        match select [ c.c_fd ] [] 0.0 with
        | [], _ -> ()
        | _ -> if read_once t c then go (reads - 1)
    in
    go 16

  let finish t c =
    drain t c;
    stop_reading c Eof

  let flush t ~within =
    let deadline = Unix.gettimeofday () +. within in
    let rec go () =
      let writers = List.filter pending t.conns in
      if writers <> [] && Unix.gettimeofday () < deadline then begin
        let _, writable = select [] (List.map (fun c -> c.c_fd) writers) 0.05 in
        List.iter (fun c -> if List.mem c.c_fd writable then service c) writers;
        go ()
      end
    in
    go ()
end
