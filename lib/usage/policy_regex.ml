type pattern = { ev_name : string; guard : Guard.t }

module Pat = struct
  type t = pattern

  let compare = Stdlib.compare

  let pp ppf p =
    match p.guard with
    | Guard.True -> Fmt.pf ppf "%s(_)" p.ev_name
    | g -> Fmt.pf ppf "%s(x|%a)" p.ev_name Guard.pp g
end

module R = Automata.Regex.Make (Pat)

let evp ?(guard = Guard.True) ev_name = R.sym { ev_name; guard }

let forbid ~name ~params r =
  if R.nullable r then
    invalid_arg "Policy_regex.forbid: the empty trace cannot be forbidden";
  let nfa = R.compile r in
  let init =
    match R.N.States.elements (R.N.initials nfa) with
    | [ s ] -> s
    | _ -> invalid_arg "Policy_regex.forbid: expected a single initial state"
  in
  let edges =
    List.map
      (fun (s, (p : pattern), d) ->
        Usage_automaton.edge s p.ev_name p.guard d)
      (R.N.transitions nfa)
  in
  Usage_automaton.make ~name ~params ~init
    ~offending:(R.N.States.elements (R.N.finals nfa))
    ~edges
