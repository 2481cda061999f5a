(* The closed-loop socket driver: one process, one thread, [M]
   connections. Each connection sends its next request line only after
   the reply to the previous one has arrived, so every request is timed
   on its own from send to reply — a slow reply stalls only its own
   connection. (Broker.Net.drive sends on every connection and then
   reads every reply in turn, which couples the connections.)

   The timed part of a run is cut into one-second windows. At each
   window boundary the driver lets the requests in flight finish, reads
   the host's steal time, and runs [between] — one timed server set-up —
   before it resumes. Each window thus carries its own steal figure,
   latencies and set-up time, so a host that is stolen from in bursts
   can be told apart from a slower program. *)

type window = {
  steal : float;  (** host steal time over the window, % *)
  lost : float;  (** [Proc.lost] over the window *)
  lat : float array;  (** latencies (s) of the requests sent in it *)
  busy_s : float;  (** the window's length minus the [between] pause *)
  setup_s : float;  (** what [between] returned *)
}

type run = {
  replies : string array array;  (** per connection, per request sent *)
  windows : window array;
  warm_sent : int;  (** requests sent before the first window *)
}

(* Drive [lines] (one array per connection) for [warmup] untimed seconds,
   then [seconds] one-second windows. A connection whose stream runs
   out stops; the run ends early if every stream does. *)
let run ~port ~warmup ~seconds ~between (lines : string array array) =
  let m = Array.length lines in
  let conns = Array.init m (fun _ -> Proc.connect port) in
  let fd_index = Hashtbl.create m in
  Array.iteri (fun i c -> Hashtbl.replace fd_index c.Proc.fd i) conns;
  let next = Array.make m 0 in
  let sent_at = Array.make m 0.0 in
  let inflight = Array.make m false in
  let replies = Array.map (fun ls -> Array.make (Array.length ls) "") lines in
  let warm_sent = ref 0 in
  let opened = Proc.now () +. warmup in
  let mark k = opened +. float_of_int k in
  let k = ref 0 in
  let windows = ref [] in
  let current = ref None in
  (* (start, jiffies, latencies, set-up, pause) of the window being filled *)
  let close_window t =
    Option.iter
      (fun (start, jiffies, lat, setup_s, pause) ->
        let now = Proc.cpu_jiffies () in
        windows :=
          {
            steal = Proc.steal_pct jiffies now;
            lost = Proc.lost jiffies now;
            lat = Array.of_list !lat;
            busy_s = t -. start -. pause;
            setup_s;
          }
          :: !windows)
      !current;
    current := None
  in
  let at_mark () =
    close_window (Proc.now ());
    if !k < seconds then begin
      let start = Proc.now () and jiffies = Proc.cpu_jiffies () in
      let setup_s = between () in
      current := Some (start, jiffies, ref [], setup_s, Proc.now () -. start)
    end;
    incr k
  in
  let send i =
    if
      Proc.now () < mark !k
      && !k <= seconds
      && next.(i) < Array.length lines.(i)
    then begin
      if !k = 0 then incr warm_sent;
      sent_at.(i) <- Proc.now ();
      inflight.(i) <- true;
      Proc.send conns.(i) lines.(i).(next.(i))
    end
  in
  let kick () = Array.iteri (fun i _ -> if not inflight.(i) then send i) conns in
  kick ();
  let rec loop () =
    let busy =
      List.filter_map
        (fun i -> if inflight.(i) then Some conns.(i).Proc.fd else None)
        (List.init m Fun.id)
    in
    if busy = [] then
      if !k <= seconds && Array.exists2 (fun n l -> n < Array.length l) next lines
      then begin
        (* everything has landed and a window boundary is due *)
        let wait = mark !k -. Proc.now () in
        if wait > 0.0 then Unix.sleepf wait;
        at_mark ();
        kick ();
        loop ()
      end
      else close_window (Proc.now ())
    else begin
      (* poll without sleeping: a driver that blocks lets its CPU go
         idle, and on a virtual host waking an idle CPU for each reply
         adds a hypervisor round trip to every latency *)
      let ready =
        match Unix.select busy [] [] 0.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          let i = Hashtbl.find fd_index fd in
          let reply = Proc.read_line conns.(i) in
          let lat = Proc.now () -. sent_at.(i) in
          replies.(i).(next.(i)) <- reply;
          Option.iter (fun (_, _, l, _, _) -> l := lat :: !l) !current;
          inflight.(i) <- false;
          next.(i) <- next.(i) + 1;
          send i)
        ready;
      loop ()
    end
  in
  loop ();
  Array.iter Proc.close conns;
  {
    replies = Array.mapi (fun i r -> Array.sub r 0 next.(i)) replies;
    windows = Array.of_list (List.rev !windows);
    warm_sent = !warm_sent;
  }
