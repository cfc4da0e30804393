type t = {
  sh_addr : Transport.addr;
  sh_pid : int;
  sh_fd : Unix.file_descr;
  mutable sh_open : bool;
}

let pid t = t.sh_pid
let fd t = t.sh_fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close t =
  if t.sh_open then begin
    t.sh_open <- false;
    close_quiet t.sh_fd
  end

let dead pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Retry until the child's listener accepts: there is no startup
   handshake, the bound socket itself is the readiness signal. *)
let rec connect_retry ~addr ~pid deadline =
  match Transport.connect addr with
  | fd -> fd
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
    if dead pid then
      failwith
        (Printf.sprintf "shard at %s died before accepting connections"
           (Transport.addr_to_string addr))
    else if Unix.gettimeofday () > deadline then
      failwith
        (Printf.sprintf "shard at %s did not accept within the connect \
                         timeout"
           (Transport.addr_to_string addr))
    else begin
      Unix.sleepf 0.02;
      connect_retry ~addr ~pid deadline
    end

let start ~binary ~addr ~args ~connect_timeout_ms =
  let argv =
    Array.of_list
      (binary :: "serve" :: "--listen" :: Transport.addr_to_string addr :: args)
  in
  let nul = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> close_quiet nul)
      (fun () -> Unix.create_process binary argv nul Unix.stderr Unix.stderr)
  in
  let deadline =
    Unix.gettimeofday () +. (float_of_int connect_timeout_ms /. 1000.0)
  in
  match connect_retry ~addr ~pid deadline with
  | fd -> { sh_addr = addr; sh_pid = pid; sh_fd = fd; sh_open = true }
  | exception e ->
    (if not (dead pid) then begin
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
     end);
    raise e

let reap ?(patience_ms = 5000) t =
  let deadline =
    Unix.gettimeofday () +. (float_of_int patience_ms /. 1000.0)
  in
  let rec wait escalated =
    match Unix.waitpid [ Unix.WNOHANG ] t.sh_pid with
    | 0, _ ->
      if (not escalated) && Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.sh_pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait true
      end
      else begin
        Unix.sleepf 0.02;
        wait escalated
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait false

let abandon t =
  close t;
  reap ~patience_ms:2000 t;
  Transport.unlink_addr t.sh_addr

let terminate ?patience_ms t =
  close t;
  (try Unix.kill t.sh_pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap ?patience_ms t;
  Transport.unlink_addr t.sh_addr
