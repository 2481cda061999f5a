(* Processes, sockets and machine facts: spawning `susf serve --listen`
   and `susf plans`, reading their memory high-water mark, and the host
   facts recorded with every result. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* The "Key:   123 kB" line of /proc/PID/status, in kB. *)
let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.sub l 0 i = key ->
                 Scanf.sscanf_opt
                   (String.sub l (i + 1) (String.length l - i - 1))
                   " %d kB" Fun.id
             | _ -> None)

(* Children not yet reaped: killed and reaped at exit, so a run that
   fails midway leaves no server behind. *)
let live = Hashtbl.create 8

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let spawn ?(stdout = "/dev/null") ~stderr argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile stdout [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile stderr [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv devnull out err in
  List.iter Unix.close [ devnull; out; err ];
  Hashtbl.replace live pid ();
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> Hashtbl.remove live pid; c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Hashtbl.remove live pid; 128 + abs s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* ---- line-oriented connections ---------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

let rec read_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some i when i < c.len ->
      let l = Bytes.sub_string c.buf c.pos (i - c.pos) in
      c.pos <- i + 1;
      l
  | _ ->
      if c.pos > 0 then begin
        Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
        c.len <- c.len - c.pos;
        c.pos <- 0
      end;
      if c.len = Bytes.length c.buf then failwith "reply line too long";
      let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
      if n = 0 then raise End_of_file;
      c.len <- c.len + n;
      read_line c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---- the server -------------------------------------------------------- *)

type server = { pid : int; port : int; setup_s : float; log : string }

(* Spawn `susf serve --listen 0` and wait for its first `ok pong`: the
   span from spawn to pong is the server's set-up time. The waits here
   and in [run_timed] poll without sleeping, for the reason given in
   Drive. *)
let start_server ~susf ~log ~spec ~shards ~journal =
  let t0 = now () in
  let pid =
    spawn ~stderr:log
      [|
        susf; "serve"; spec; "--listen"; "0"; "--shards"; string_of_int shards;
        "--batch"; "1"; "--journal"; journal; "--force";
      |]
  in
  let prefix = "-- listening on 127.0.0.1:" in
  let rec port_of_log () =
    let found =
      String.split_on_char '\n' (read_file log)
      |> List.find_map (fun l ->
             if String.starts_with ~prefix l then
               Scanf.sscanf_opt
                 (String.sub l (String.length prefix)
                    (String.length l - String.length prefix))
                 "%d" Fun.id
             else None)
    in
    match found with
    | Some p -> p
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("server exited during start-up: " ^ read_file log));
        if now () -. t0 > 60.0 then failwith "server did not start in 60 s";
        port_of_log ()
  in
  let port = port_of_log () in
  let c = connect port in
  send c "ping";
  let pong = read_line c in
  let setup_s = now () -. t0 in
  close c;
  if pong <> "ok pong" then failwith ("unexpected ping reply: " ^ pong);
  { pid; port; setup_s; log }

let peak_rss_mb pid =
  match status_kb pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc/PID/status"

(* `shutdown`, await `ok bye` (sent after every journal is flushed and
   closed), then reap the process. *)
let stop_server s =
  let c = connect s.port in
  send c "shutdown";
  let bye = try read_line c with End_of_file -> "" in
  close c;
  let code = wait s.pid in
  if bye <> "ok bye" || code <> 0 then
    failwith
      (Printf.sprintf "server shutdown: reply %S, exit %d: %s" bye code
         (read_file s.log))

external reap : int -> int * int = "perfbench_reap"

(* Run a command to completion: exit code, wall time, and peak resident
   set in MB (from wait4). The first 50 ms are polled without sleeping,
   so a short run's exit is seen at once; after that a 1 ms sleep leaves
   the CPU to the child (on a shared virtual host, keeping every CPU
   busy gets CPU time stolen). *)
let run_timed ~stdout ~stderr argv =
  let t0 = now () in
  let pid = spawn ~stdout ~stderr argv in
  let rec poll () =
    match reap pid with
    | -1, _ ->
        if now () -. t0 > 0.05 then Unix.sleepf 0.001;
        poll ()
    | -2, _ -> failwith ("wait4 failed for " ^ argv.(0))
    | code, kb ->
        Hashtbl.remove live pid;
        (code, now () -. t0, float_of_int kb /. 1024.0)
  in
  poll ()

(* ---- machine facts ----------------------------------------------------- *)

(* Aggregate "cpu" jiffies from /proc/stat. *)
type jiffies = { busy : int; steal : int; total : int }

let cpu_jiffies () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> { busy = 0; steal = 0; total = 0 }
  | text ->
      let f =
        List.hd (String.split_on_char '\n' text)
        |> String.split_on_char ' '
        |> List.filter (fun f -> f <> "")
        |> List.tl |> List.filter_map int_of_string_opt |> Array.of_list
      in
      let at i = if i < Array.length f then f.(i) else 0 in
      {
        (* user, nice, system, irq, softirq *)
        busy = at 0 + at 1 + at 2 + at 5 + at 6;
        steal = at 7;
        total = Array.fold_left ( + ) 0 f;
      }

(* Host steal over an interval, as a share of all CPU time (%). *)
let steal_pct a b =
  if b.total > a.total then
    100.0 *. float_of_int (b.steal - a.steal) /. float_of_int (b.total - a.total)
  else 0.0

(* The share of the CPU time the guest's tasks wanted that the host
   kept for itself: steal over busy + steal. *)
let lost a b =
  let s = b.steal - a.steal and u = b.busy - a.busy in
  if s + u > 0 then float_of_int s /. float_of_int (s + u) else 0.0

let nproc () = Domain.recommended_domain_count ()
