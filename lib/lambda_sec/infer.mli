(** The type-and-effect system: [Γ ⊢ e : τ ▷ H] — expression [e] has
    type [τ] and its execution produces histories abstracted by the
    history expression [H] (the reconstruction of [4,5] described in
    DESIGN.md). *)

type error =
  | Unbound of string
  | Mismatch of { expected : Ast.ty; got : Ast.ty; context : string }
  | Not_a_function of Ast.ty
  | Branches_differ of string
  | Needs_annotation of string
      (** a recursive function without a return-type annotation *)
  | Base_type_expected of Ast.ty

val pp_error : error Fmt.t

val infer :
  (string * Ast.ty) list -> Ast.term -> (Ast.ty * Core.Hexpr.t, error) result
(** Latent effects of recursive functions are tied with [μ]; the effect
    of a conditional is the {!Effect.join} of its branches. *)
