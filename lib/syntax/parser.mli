(** Recursive-descent parser for the [.susf] language.

    {v
    // policy automaton (Fig. 1)
    policy phi(bl, p, t) {
      start q1;
      offending q6;
      q1 -- sgn(x) when x notin bl --> q2;
      q1 -- sgn(x) when x in bl    --> q6;
      q2 -- price(x) when x <= p   --> q3;
      q2 -- price(x) when x > p    --> q4;
      q4 -- rating(x) when x >= t  --> q5;
      q4 -- rating(x) when x < t   --> q6;
    }

    service s3 = #sgn(s3) . #price(90) . #rating(100)
               . idc?.(bok! (+) una!);
    service br = req?.(open(3){ idc!.(bok? + una?) }
               . (cobo!.pay? (+) noav!));
    client c1  = open(1: phi({s1},45,100)){ req!.(cobo?.pay! + noav?) };
    plan pi1   = { 1 -> br, 3 -> s3 };
    v}

    History expressions: [eps], [mu h. H], input prefixes [a?], output
    prefixes [a!], [+]/[(+)]/[<+>] choices, [.] sequencing, events
    [#name(value)], framings [phi(args)[ H ]], residual closings
    [~phi(args)], sessions [open(r: pol){ H }] / [open(r){ H }],
    residual [close(r)]. Parsed expressions are returned in
    {!Core.Hexpr.normalize}d form, and only when they are well formed
    ({!Core.Hexpr.well_formed}): a [service] or [client] declaration,
    or the expression given to {!hexpr_of_string}, that is not raises
    {!Error} at its start. *)

exception Error of string * int * int
(** message, line, column *)

val spec_of_string :
  ?automata:(string * Usage.Usage_automaton.t) list -> string -> Spec.t
(** Parse a whole specification. [automata] pre-seeds the policy
    environment (e.g. with {!Usage.Policy_lib.hotel} as [phi]). *)

val hexpr_of_string :
  ?automata:(string * Usage.Usage_automaton.t) list -> string -> Core.Hexpr.t
(** Parse a single history expression. *)

val spec_of_file :
  ?automata:(string * Usage.Usage_automaton.t) list -> string -> Spec.t

val term_of_string :
  ?automata:(string * Usage.Usage_automaton.t) list ->
  string ->
  Lambda_sec.Ast.term
(** Parse a λ-calculus program:
    {v
    program order = req(1: phi({s1},45,100)){
      send req;
      recv { cobo -> send pay | noav -> () }
    };
    v}
    Constructs: [fun (x : ty) -> t], [rec f (x : ty) : ty -> t],
    [let x = t in t], [if t then t else t], [t == t], application by
    juxtaposition, events [#name(v)], [send a],
    [recv { a -> t | … }], [select { … }], sessions
    [req(r: pol){ t; t }], framings [frame pol(args) { t }], and [;]
    sequencing inside braces. *)
