(* @engine-smoke: cross-engine sanity for the pluggable routing-engine
   subsystem.

   Checks, in order:
   1. On three small fixtures the MaxSAT engine proves its optimum and
      that optimum lower-bounds every order-preserving heuristic engine
      (sabre, astar, tket, hybrid, qap).
   2. A QAOA maxcut workload routes through the swap_strategy engine and
      the result survives the registry's verifier gate (the Z-diagonal
      commuting relaxation end to end).
   3. The serving layer's cache key is engine-tagged: a qubit-renamed
      copy of a request hits the cache under the same engine but misses
      under a different engine, and neither answer crosses over.

   Exit code 1 on any violation, so `dune runtest` fails. *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("engine-smoke: " ^ msg);
      exit 1)
    fmt

let device name =
  match Arch.Topologies.by_name name with
  | Some d -> d
  | None -> fail "unknown fixture device %S" name

let route ~engine dev circuit config =
  match Engines.Catalog.route ~engine dev circuit config with
  | Ok (routed, meta) -> (routed, meta)
  | Error msg -> fail "%s" msg

(* 1. MaxSAT optimum <= each heuristic cost on 3 fixtures. *)
let heuristic_engines = [ "sabre"; "astar"; "tket"; "hybrid"; "qap" ]

let check_lower_bounds () =
  let fixtures =
    [
      ("ghz-5/linear-8", device "linear-8", Workloads.Generators.ghz 5);
      ( "adder-2/linear-8",
        device "linear-8",
        Workloads.Generators.ripple_adder 2 );
      ( "local-random/grid-2x3",
        device "grid-2x3",
        Workloads.Generators.local_random (Rng.create 7) ~n:6 ~gates:14
          ~locality:0.8 );
    ]
  in
  List.iter
    (fun (name, dev, circuit) ->
      (* the default config: 30 s, verified, sliced at 25 *)
      let config = Engines.Registry.default_config in
      let routed, meta = route ~engine:"maxsat" dev circuit config in
      if not meta.Engines.Registry.m_optimal then
        fail "%s: maxsat did not prove optimality within the budget" name;
      let optimum = Satmap.Routed.n_swaps routed in
      List.iter
        (fun engine ->
          let heur, _ = route ~engine dev circuit config in
          let cost = Satmap.Routed.n_swaps heur in
          if cost < optimum then
            fail "%s: %s found %d swaps below the proved optimum %d" name
              engine cost optimum)
        heuristic_engines;
      Printf.printf "engine-smoke: %s optimum %d bounds %s\n%!" name optimum
        (String.concat "," heuristic_engines))
    fixtures

(* 2. swap_strategy routes a commuting workload and verifies. *)
let check_swap_strategy () =
  let _, circuit = Qaoa.Build.maxcut_3_regular ~seed:11 ~n:6 ~cycles:2 in
  let dev = device "linear-8" in
  let config = Engines.Registry.default_config in
  (* Registry.run verifies by default; reaching Ok means the Z-diagonal
     commuting relaxation accepted the reordered output. *)
  let routed, meta = route ~engine:"swap_strategy" dev circuit config in
  if meta.Engines.Registry.m_engine <> "swap_strategy" then
    fail "meta names engine %S" meta.Engines.Registry.m_engine;
  Printf.printf "engine-smoke: swap_strategy verified maxcut-6 (%d swaps)\n%!"
    (Satmap.Routed.n_swaps routed)

(* 3. Serve cache never crosses engines. *)
let check_serve_cache_keying () =
  let t = Service.Engine.create ~workers:1 () in
  let circuit = Workloads.Generators.ghz 4 in
  let n = Quantum.Circuit.n_qubits circuit in
  let renamed = Quantum.Circuit.relabel_qubits circuit (fun q -> n - 1 - q) in
  let base =
    {
      Service.Protocol.default_request with
      qasm = Quantum.Qasm.to_string circuit;
      device = "linear-4";
      engine = "sabre";
      timeout = 20.0;
    }
  in
  let ok_of = function
    | Service.Protocol.Ok_response p -> p
    | r ->
      fail "serve: expected ok response, got %s"
        (Service.Protocol.response_to_string r)
  in
  let cold = ok_of (Service.Engine.handle t { base with id = "cold" }) in
  if cold.ok_cache_hit then fail "serve: cold sabre request reported a hit";
  let ren_same =
    ok_of
      (Service.Engine.handle t
         { base with id = "ren-same"; qasm = Quantum.Qasm.to_string renamed })
  in
  if not ren_same.ok_cache_hit then
    fail "serve: renamed request under the same engine missed the cache";
  let ren_other =
    ok_of
      (Service.Engine.handle t
         {
           base with
           id = "ren-other";
           qasm = Quantum.Qasm.to_string renamed;
           engine = "tket";
         })
  in
  if ren_other.ok_cache_hit then
    fail "serve: renamed request under a different engine hit the cache";
  (* A second tket request must now hit its own entry, not sabre's. *)
  let ren_other2 =
    ok_of
      (Service.Engine.handle t
         {
           base with
           id = "ren-other2";
           qasm = Quantum.Qasm.to_string renamed;
           engine = "tket";
         })
  in
  if not ren_other2.ok_cache_hit then
    fail "serve: repeated tket request missed its own cache entry";
  if ren_other2.ok_qasm <> ren_other.ok_qasm then
    fail "serve: tket cache entry returned a different circuit";
  (match Service.Engine.handle t { base with id = "bogus"; engine = "bogus" } with
  | Service.Protocol.Error_response { code = Service.Protocol.Bad_request; message; _ }
    ->
    let mentions e =
      let el = String.length e and ml = String.length message in
      let rec scan i =
        i + el <= ml && (String.sub message i el = e || scan (i + 1))
      in
      scan 0
    in
    if not (mentions "sabre" && mentions "swap_strategy") then
      fail "serve: bad-engine error does not list the catalogue: %s" message
  | r ->
    fail "serve: unknown engine answered %s instead of bad_request"
      (Service.Protocol.response_to_string r));
  Service.Engine.shutdown t;
  print_endline "engine-smoke: serve cache is engine-keyed"

let () =
  check_lower_bounds ();
  check_swap_strategy ();
  check_serve_cache_keying ();
  print_endline
    "engine-smoke: ok (optimum lower-bounds heuristics, swap_strategy \
     verifies, engine-keyed serve cache)"
