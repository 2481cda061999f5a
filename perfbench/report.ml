(* Statistics and the result line. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile. *)
let percentile p a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a = percentile 0.5 a

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let ratio_line name num den =
  Printf.sprintf "%s %s ratio (%d of %d)" name
    (number (float_of_int num /. float_of_int (max 1 den)))
    num den

(* Machine facts and the human-readable lines, then every metric by name
   with its unit, then — last — the one-line JSON result. *)
let print ~attempted ~failed ~steal ~human metrics =
  Printf.printf "machine: nproc %d, ocaml %s, steal %.2f%% over the run\n"
    (Proc.nproc ()) Sys.ocaml_version steal;
  List.iter print_endline human;
  List.iter
    (fun x -> Printf.printf "%-36s %s %s\n" x.name (number x.value) x.unit_)
    metrics;
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0)
    attempted failed (String.concat ", " body)
