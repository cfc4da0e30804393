(* Clocks, summaries, files and the result record shared by the workloads. *)

let workloads = [ "suite"; "large"; "serve" ]

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let s_between t0 t1 = ms_between t0 t1 /. 1e3

(* Linear-interpolated quantile with the (n + 1) positions of Python's
   [statistics.quantiles(method="exclusive")], clamped to the sample
   range: [quantile xs 0.25/0.5/0.75] agree with the quartiles the
   acceptance rule is computed from.  An empty sample reads 0. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | [ x ] -> x
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n + 1) in
    let pos = Float.max 1. (Float.min (float_of_int n) pos) in
    let j = truncate pos in
    let frac = pos -. float_of_int j in
    if j >= n then a.(n - 1) else a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fsum xs = List.fold_left ( +. ) 0. xs
let isum xs = List.fold_left ( + ) 0 xs

(* [ratio num den] with a zero base reading as 0, not nan: a layer the
   workload never calls reports 0 (its base is printed beside it). *)
let ratio num den = if den = 0. then 0. else num /. den

(* Throughput as a median over windows of [width] consecutive
   completions: each window's rate is its weight divided by the wall
   time since the previous window closed.  A median of window rates is
   steadier than one rate over the whole run, which a single stall
   drags down.  [completions] are (completion time, weight) in order. *)
let windowed_rate ~start ~width completions =
  let rec go acc prev_t w k = function
    | [] -> acc
    | (t, weight) :: rest ->
      let w = w +. weight and k = k + 1 in
      if k = width then
        go (ratio w (s_between prev_t t) :: acc) t 0. 0 rest
      else go acc prev_t w k rest
  in
  go [] start 0. 0 completions

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(* Scratch files of one run live under the benchmark's own ignored
   output directory and are removed when the run ends. *)
let out_dir = "perfbench/_out"

let with_tmp_dir f =
  let d = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let lines s = String.split_on_char '\n' s

(* Index of the first [sub] in [s] at or after [from]; raises Not_found. *)
let find s ~from sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then raise Not_found
    else if String.sub s i k = sub then i
    else go (i + 1)
  in
  go from

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "--- constants substituted: N" of an analyze rendering. *)
let substituted out =
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "--- constants substituted: %d%!" Fun.id with
      | n -> acc + n
      | exception _ -> acc)
    0 (lines out)

(* Run [setup] [reps] times and keep the last state: set-up time is the
   median over the repetitions, so work moved into set-up shows. *)
let timed_setup ~reps ~teardown setup =
  let rec go i times prev =
    Option.iter teardown prev;
    let t0 = now_ns () in
    let st = setup i in
    let times = s_between t0 (now_ns ()) :: times in
    if i + 1 < reps then go (i + 1) times (Some st) else (st, times)
  in
  go 0 [] None

(* Seeds of independent input streams derived from the workload seed. *)
let sub_seed seed k = (seed * 1_000_003) + (k * 7919) + 17

(* [m_n] is the sample count; [m_base] names the base of a ratio. *)
type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_n : int;
  m_base : string;
}

let metric ?(n = 1) ?(base = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_n = n; m_base = base }

(* What one workload run reports.  [failures] holds a few failing-check
   messages for the human-readable output. *)
type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  extra : (string * Ipcp_telemetry.Json.t) list;
  failures : string list;
}

(* Failure bookkeeping: every output check goes through [check], which
   keeps the first few messages. *)
type checks = { mutable bad : int; mutable msgs : string list }

let new_checks () = { bad = 0; msgs = [] }

let check c ok msg =
  if not ok then begin
    c.bad <- c.bad + 1;
    if List.length c.msgs < 5 then c.msgs <- Lazy.force msg :: c.msgs
  end;
  ok
