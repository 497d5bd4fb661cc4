(* Cross-engine differential harness: run k engines on one instance,
   verify every output independently, and hold the MaxSAT optimum as a
   lower bound over every order-preserving heuristic.

   Soundness of the bound: the MaxSAT router minimises swap count for
   the circuit's program order, so when it *proves* its optimum
   ([m_optimal]), no router that replays that exact total order can use
   fewer swaps.  Two relaxations legitimately escape the bound and are
   exempt:

   - Engines advertising [reorders_commuting] (swap_strategy) may
     execute commuting gates in any order.
   - Front-layer heuristics (sabre, tket, astar, qap) schedule any gate
     whose per-qubit predecessors are done, so two gates on disjoint
     qubits may execute in either order.  That is dependency-sound (the
     verifier's per-qubit queues accept it) but optimises over a
     strictly larger space than the total-order encoding; on instances
     where the source order binds, a verified routing below the
     "optimum" exists.  We detect this case by replaying the routed
     circuit through the SWAP trajectory: a win is only a violation if
     the translated gate sequence equals the source order exactly.

   An unproved MaxSAT cost (sliced run, deadline) bounds nothing and
   asserts nothing. *)

type row = {
  r_engine : string;
  r_result : (Satmap.Routed.t * Registry.meta, string) result;
}

type report = {
  rows : row list;
  violations : string list;
      (** verifier rejections and lower-bound violations; empty on a
          clean run *)
}

let row_cost row =
  match row.r_result with
  | Ok (routed, _) -> Some (Satmap.Routed.n_swaps routed)
  | Error _ -> None

(* Does the routed circuit replay the original gates in exactly the
   source text's total order?  Walk the physical gates, tracking the
   phys -> log assignment through SWAPs, and translate every other gate
   back to logical indices; order is preserved iff the translated
   sequence equals the original gate list.  Anything that fails to
   line up (interleaved disjoint gates, commuting reorders, SWAPs in
   the source circuit) conservatively counts as reordered, which only
   ever widens the exemption, never invents a violation. *)
let preserves_program_order ~original routed =
  let inv = Array.copy (Satmap.Mapping.phys_to_log (Satmap.Routed.initial routed)) in
  let translated =
    List.filter_map
      (fun gate ->
        match gate with
        | Quantum.Gate.Two { kind = Quantum.Gate.Swap; control; target } ->
          let t = inv.(control) in
          inv.(control) <- inv.(target);
          inv.(target) <- t;
          None
        | Quantum.Gate.Barrier _ -> None
        | g -> Some (Quantum.Gate.relabel (fun p -> inv.(p)) g))
      (Quantum.Circuit.gates (Satmap.Routed.circuit routed))
  in
  let originals =
    List.filter
      (fun g -> match g with Quantum.Gate.Barrier _ -> false | _ -> true)
      (Quantum.Circuit.gates original)
  in
  List.length translated = List.length originals
  && List.for_all2 Quantum.Gate.equal translated originals

let run ?(engines = Catalog.names ()) ?(config = Registry.default_config)
    device circuit =
  (* Verification is the point of the harness; seeding would turn the
     maxsat row into a seeded (non-global) optimum, so strip both. *)
  let config =
    {
      config with
      Registry.router =
        { config.Registry.router with verify = true; initial_map = None };
    }
  in
  let rows =
    List.map
      (fun name ->
        { r_engine = name; r_result = Catalog.route ~engine:name device circuit config })
      engines
  in
  let violations = ref [] in
  List.iter
    (fun row ->
      match row.r_result with
      | Error msg when String.length msg > 0 ->
        (* verifier rejections arrive as errors; collect only those *)
        let is_verifier =
          (* Registry.run prefixes verifier rejections distinctly *)
          let marker = "verifier rejected output" in
          let rec contains i =
            i + String.length marker <= String.length msg
            && (String.sub msg i (String.length marker) = marker
               || contains (i + 1))
          in
          contains 0
        in
        if is_verifier then violations := msg :: !violations
      | _ -> ())
    rows;
  (match
     List.find_opt
       (fun r ->
         r.r_engine = "maxsat"
         && match r.r_result with Ok (_, m) -> m.Registry.m_optimal | _ -> false)
       rows
   with
  | None -> ()
  | Some opt_row ->
    let optimum = Option.get (row_cost opt_row) in
    List.iter
      (fun row ->
        if row.r_engine <> "maxsat" then
          match (Catalog.find row.r_engine, row.r_result) with
          | Some e, Ok (routed, _)
            when (not e.Registry.caps.Registry.reorders_commuting)
                 && Satmap.Routed.n_swaps routed < optimum
                 && preserves_program_order ~original:circuit routed ->
            (* A cheaper routing that replays the exact source order
               contradicts the optimality proof — a routing bug, not a
               relaxation win. *)
            violations :=
              Printf.sprintf
                "%s used %d swaps in program order, beating the proved \
                 MaxSAT optimum of %d"
                row.r_engine
                (Satmap.Routed.n_swaps routed)
                optimum
              :: !violations
          | _ -> ())
      rows);
  { rows; violations = List.rev !violations }

let pp_report fmt report =
  List.iter
    (fun row ->
      match row.r_result with
      | Ok (routed, m) ->
        Format.fprintf fmt "%-14s %3d swaps  depth %3d  %6.3fs%s@."
          row.r_engine
          (Satmap.Routed.n_swaps routed)
          (Satmap.Routed.depth routed)
          m.Registry.m_time
          (if m.Registry.m_optimal then "  (optimal)" else "")
      | Error msg -> Format.fprintf fmt "%-14s failed: %s@." row.r_engine msg)
    report.rows;
  List.iter (fun v -> Format.fprintf fmt "VIOLATION: %s@." v) report.violations
