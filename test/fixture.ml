(* The fixed compositions the tests share, loaded from their one source,
   a .susf file, so every fixture test also goes through the parser. A
   name the file does not declare fails the test that asks for it. *)

let cloud = Syntax.Parser.spec_of_file "../examples/data/cloud.susf"
let ecommerce = Syntax.Parser.spec_of_file "../examples/data/ecommerce.susf"
let marketplace = Syntax.Parser.spec_of_file "../examples/data/marketplace.susf"
let loose = Syntax.Parser.spec_of_file "corpus/loose.susf"
let mesh = Syntax.Parser.spec_of_file "corpus/mesh.susf"
let redundant = Syntax.Parser.spec_of_file "corpus/redundant.susf"

let find what lookup name =
  match lookup name with
  | Some x -> x
  | None -> Alcotest.failf "no %s %s in the fixture" what name

let service spec = find "service" (fun n -> List.assoc_opt n spec.Syntax.Spec.services)
let client spec = find "client" (Syntax.Spec.find_client spec)
let plan spec = find "plan" (Syntax.Spec.find_plan spec)

(* [name] instantiated with [args], as a client of the file would *)
let policy spec name args =
  Usage.Usage_automaton.instantiate
    (find "policy" (Syntax.Spec.find_automaton spec) name)
    args

(* the named services, in the given order, at their own locations *)
let services spec names = List.map (fun n -> (n, service spec n)) names
