(* The builtin engine catalogue and name table.

   Every routing path in the repo is wrapped behind the [Registry.t]
   contract: the MaxSAT reference router (every SATMAP method, seeded via
   [Router.config.initial_map]), the three heuristic baselines, the
   hybrid MaxSAT-mapping + SABRE pipeline, and the two engines new to
   this subsystem — [swap_strategy] and [qap].  Callers go through
   [find]/[all]/[names]; [register] is the extension point. *)

let seeded placement cfg =
  match (cfg : Registry.config).router.initial_map with
  | Some a -> Array.copy a
  | None -> placement ()

(* The registry wrapper verifies uniformly, so the router does not. *)
let maxsat_route device circuit (cfg : Registry.config) =
  match
    Satmap.Router.route ~config:{ cfg.router with verify = false } cfg.method_
      device circuit
  with
  | Satmap.Router.Routed (routed, stats) -> Ok (routed, Some stats)
  | Satmap.Router.Failed msg -> Error msg

let sabre_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Sabre.default_config with seed = cfg.seed } in
  let routed =
    match cfg.router.initial_map with
    | Some initial -> Heuristics.Sabre.route_from ~config ~initial device circuit
    | None -> Heuristics.Sabre.route ~config device circuit
  in
  Ok (routed, None)

let astar_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Astar_route.default_config with seed = cfg.seed } in
  Ok
    ( Heuristics.Astar_route.route ~config ?initial:cfg.router.initial_map
        device circuit,
      None )

let tket_route device circuit (cfg : Registry.config) =
  let config = { Heuristics.Tket_route.default_config with seed = cfg.seed } in
  Ok
    ( Heuristics.Tket_route.route ~config ?initial:cfg.router.initial_map
        device circuit,
      None )

let hybrid_route device circuit (cfg : Registry.config) =
  let config =
    {
      Heuristics.Hybrid.timeout = cfg.router.timeout;
      verify = false;
      sabre = { Heuristics.Sabre.default_config with seed = cfg.seed };
    }
  in
  Ok (Heuristics.Hybrid.route ~config device circuit, None)

let qap_place device circuit (cfg : Registry.config) =
  Qap.place ~seed:cfg.seed device circuit

let qap_route device circuit (cfg : Registry.config) =
  let initial = seeded (fun () -> qap_place device circuit cfg) cfg in
  let config = { Heuristics.Sabre.default_config with seed = cfg.seed } in
  Ok (Heuristics.Sabre.route_from ~config ~initial device circuit, None)

let no_caps =
  {
    Registry.optimal = false;
    anytime = false;
    commuting_only = false;
    reorders_commuting = false;
    accepts_seed = false;
    places = false;
    router_hooks = false;
  }

let builtins : Registry.t list =
  [
    {
      name = "maxsat";
      description =
        "the paper's MaxSAT router: monolithic, sliced, cyclic or the \
         slice-size portfolio (globally optimal when one non-cyclic block \
         suffices)";
      caps =
        {
          no_caps with
          optimal = true;
          anytime = true;
          accepts_seed = true;
          router_hooks = true;
        };
      route = maxsat_route;
      place = None;
    };
    {
      name = "sabre";
      description = "SABRE bidirectional heuristic mapping + routing";
      caps = { no_caps with accepts_seed = true };
      route = sabre_route;
      place = None;
    };
    {
      name = "astar";
      description = "MQT-style per-layer A* swap search";
      caps = { no_caps with accepts_seed = true };
      route = astar_route;
      place = None;
    };
    {
      name = "tket";
      description = "tket-style greedy placement + lookahead swap selection";
      caps = { no_caps with accepts_seed = true };
      route = tket_route;
      place = None;
    };
    {
      name = "hybrid";
      description = "MaxSAT optimal initial mapping + SABRE routing";
      caps = no_caps;
      route = hybrid_route;
      place = None;
    };
    {
      name = "swap_strategy";
      description =
        "SAT subgraph-isomorphism mapping + swap-strategy layers for \
         commuting (Cz/Rzz) circuits";
      caps =
        {
          no_caps with
          commuting_only = true;
          reorders_commuting = true;
          accepts_seed = true;
        };
      route = Swap_strategy.route;
      place = None;
    };
    {
      name = "qap";
      description =
        "quadratic-assignment placement with tabu search, routed by SABRE";
      caps = { no_caps with accepts_seed = true; places = true };
      route = qap_route;
      place = Some qap_place;
    };
  ]

let table : (string, Registry.t) Hashtbl.t = Hashtbl.create 16

let () = List.iter (fun e -> Hashtbl.replace table e.Registry.name e) builtins

let register e = Hashtbl.replace table e.Registry.name e
let find name = Hashtbl.find_opt table name

let all () =
  List.sort
    (fun a b -> compare a.Registry.name b.Registry.name)
    (Hashtbl.fold (fun _ e acc -> e :: acc) table [])

let names () = List.map (fun e -> e.Registry.name) (all ())

let route ~engine device circuit config =
  match find engine with
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (available: %s)" engine
         (String.concat ", " (names ())))
  | Some e -> Registry.run e device circuit config
