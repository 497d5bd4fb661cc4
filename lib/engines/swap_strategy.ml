(* Swap-strategy routing for commuting-gate circuits (Matsuo, Yamashita,
   Egger — arXiv 2212.05666), the natural engine for lib/qaoa's MaxCut
   workloads.

   A swap strategy is a fixed sequence of swap layers — rounds of
   disjoint device edges, here the greedy edge-coloring of the device
   graph cycled forever.  Because every two-qubit gate of a QAOA block is
   Z-diagonal, the gates commute and each can execute at *any* point
   while the strategy runs, namely whenever its two logical qubits pass
   through adjacent positions.  After l layers the "accumulated
   adjacency" A_l relates start positions that were adjacent at some
   time t <= l; a circuit whose interaction graph embeds into A_l is
   routable with at most l swap layers.

   The initial mapping is found as subgraph isomorphism into A_l encoded
   to SAT (exactly-one per logical qubit, at-most-one per position, and
   per program edge a neighbourhood clause), with binary search on l —
   the SAT monotonicity in l makes that sound; an Unknown verdict
   (deadline) is treated as unsatisfiable, as in the paper.  Emission is
   greedy: execute every pending gate whose endpoints are adjacent, else
   apply the next strategy layer, dropping swaps that touch no pending
   qubit (dead-swap elimination — pending qubits still follow the full
   strategy trajectory, so the A_l guarantee is preserved).  A
   shortest-path swap chain on the oldest pending gate breaks any stall,
   guaranteeing termination even for blocks the SAT bound does not
   cover (later QAOA cycles start from an evolved mapping).

   The output reorders commuting gates relative to program order — the
   verifier's Z-diagonal relaxation accepts exactly this — so the engine
   advertises [reorders_commuting] and the differential harness does not
   hold the order-preserving MaxSAT optimum over it. *)

let z_diagonal_two = function
  | Quantum.Gate.Cz | Quantum.Gate.Rzz _ -> true
  | _ -> false

let supported circuit =
  List.for_all
    (fun g ->
      match g with
      | Quantum.Gate.Two { kind; _ } -> z_diagonal_two kind
      | _ -> true)
    (Quantum.Circuit.gates circuit)

(* The strategy: greedy edge-coloring rounds of the device graph. *)
let strategy device =
  let g =
    Qaoa.Graphs.of_edges
      ~n:(Arch.Device.n_qubits device)
      (Arch.Device.edges device)
  in
  Array.of_list (Qaoa.Build.commuting_layers g)

(* Accumulated adjacency snapshots over start positions: [snaps.(l)] is
   A_l, for l = 0 (plain device adjacency) up to the first complete
   graph or [cap] layers.  [inv.(p)] tracks which start position the
   qubit now at position [p] came from. *)
let accumulated device rounds ~cap =
  let n = Arch.Device.n_qubits device in
  let adj = Array.make_matrix n n false in
  let inv = Array.init n Fun.id in
  let record () =
    List.iter
      (fun (a, b) ->
        adj.(inv.(a)).(inv.(b)) <- true;
        adj.(inv.(b)).(inv.(a)) <- true)
      (Arch.Device.edges device)
  in
  let complete () =
    let ok = ref true in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if not adj.(a).(b) then ok := false
      done
    done;
    !ok
  in
  record ();
  let snaps = ref [ Array.map Array.copy adj ] in
  if Array.length rounds > 0 then begin
    let l = ref 0 in
    while !l < cap && not (complete ()) do
      List.iter
        (fun (a, b) ->
          let u = inv.(a) and v = inv.(b) in
          inv.(a) <- v;
          inv.(b) <- u)
        rounds.(!l mod Array.length rounds);
      record ();
      incr l;
      snaps := Array.map Array.copy adj :: !snaps
    done
  end;
  Array.of_list (List.rev !snaps)

(* SAT subgraph-isomorphism: embed the program interaction graph into
   the accumulated adjacency [adj].  Returns the placement on success;
   Unsat and Unknown (deadline) both come back as [None]. *)
let embed ?deadline ~n_log ~n_phys pairs adj =
  let s = Sat.Solver.create () in
  let sink = Sat.Sink.of_solver s in
  let vars =
    Array.init n_log (fun _ -> Array.init n_phys (fun _ -> Sat.Solver.new_var s))
  in
  let lit q p = Sat.Lit.of_var vars.(q).(p) in
  for q = 0 to n_log - 1 do
    Sat.Card.exactly_one sink (List.init n_phys (lit q))
  done;
  if n_log > 1 then
    for p = 0 to n_phys - 1 do
      Sat.Card.at_most_one sink (List.init n_log (fun q -> lit q p))
    done;
  List.iter
    (fun (u, v) ->
      for p = 0 to n_phys - 1 do
        let nbrs = ref [] in
        for p' = n_phys - 1 downto 0 do
          if adj.(p).(p') then nbrs := lit v p' :: !nbrs
        done;
        Sat.Solver.add_clause s (Sat.Lit.neg (lit u p) :: !nbrs)
      done)
    pairs;
  match Sat.Solver.solve ?deadline s with
  | Sat ->
    Some
      (Array.init n_log (fun q ->
           let p = ref (-1) in
           for p' = n_phys - 1 downto 0 do
             if Sat.Solver.model_value s vars.(q).(p') then p := p'
           done;
           !p))
  | Unsat | Unknown -> None

let interaction_pairs circuit =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (_, q, q') ->
      let e = if q <= q' then (q, q') else (q', q) in
      if Hashtbl.mem seen e then None
      else begin
        Hashtbl.replace seen e ();
        Some e
      end)
    (Quantum.Circuit.two_qubit_gates circuit)

(* Binary search the minimal layer count whose accumulated adjacency
   admits an embedding; returns the model found at that count. *)
let sat_placement ~deadline device rounds circuit =
  let n_log = Quantum.Circuit.n_qubits circuit in
  let n_phys = Arch.Device.n_qubits device in
  let pairs = interaction_pairs circuit in
  let snaps = accumulated device rounds ~cap:(4 * n_phys) in
  let hi = Array.length snaps - 1 in
  match embed ~deadline ~n_log ~n_phys pairs snaps.(hi) with
  | None -> None
  | Some model ->
    let lo = ref 0 and hi = ref hi and best = ref model in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      match embed ~deadline ~n_log ~n_phys pairs snaps.(mid) with
      | Some m ->
        best := m;
        hi := mid
      | None -> lo := mid + 1
    done;
    Some !best

let route device circuit (cfg : Registry.config) =
  let n_log = Quantum.Circuit.n_qubits circuit in
  let n_phys = Arch.Device.n_qubits device in
  if n_log > n_phys then Error "circuit does not fit on the device"
  else if not (supported circuit) then
    Error
      "swap_strategy requires every two-qubit gate to be Z-diagonal \
       (Cz/Rzz); use another engine for general circuits"
  else begin
    let deadline = Unix.gettimeofday () +. cfg.router.timeout in
    let rounds = strategy device in
    let initial =
      match cfg.router.initial_map with
      | Some a -> Array.copy a
      | None ->
        if Quantum.Circuit.count_two_qubit circuit = 0 then
          Array.init n_log Fun.id
        else (
          match sat_placement ~deadline device rounds circuit with
          | Some m -> m
          | None -> Heuristics.Tket_route.initial_placement ~device circuit)
    in
    let cur = Array.copy initial in
    let occ = Array.make n_phys (-1) in
    Array.iteri (fun q p -> occ.(p) <- q) cur;
    let out = ref [] in
    let emit g = out := g :: !out in
    let apply_swap a b =
      let qa = occ.(a) and qb = occ.(b) in
      occ.(a) <- qb;
      occ.(b) <- qa;
      if qa >= 0 then cur.(qa) <- b;
      if qb >= 0 then cur.(qb) <- a;
      emit (Quantum.Gate.swap a b)
    in
    (* Pending commuting block, in program order. *)
    let pending = ref [] in
    let execute_ready () =
      let ready, rest =
        List.partition
          (fun (_, u, v) -> Arch.Device.adjacent device cur.(u) cur.(v))
          !pending
      in
      List.iter
        (fun (kind, u, v) ->
          emit (Quantum.Gate.Two { kind; control = cur.(u); target = cur.(v) }))
        ready;
      pending := rest;
      ready <> []
    in
    let n_rounds = Array.length rounds in
    let flush () =
      pending := List.rev !pending;
      ignore (execute_ready ());
      let round_ix = ref 0 and stall = ref 0 in
      while !pending <> [] do
        if n_rounds = 0 || !stall > n_rounds then begin
          (* Stall breaker: walk the oldest pending gate's qubits
             together along a shortest path — guaranteed progress. *)
          let _, u, v = List.hd !pending in
          while not (Arch.Device.adjacent device cur.(u) cur.(v)) do
            let p = cur.(u) and q = cur.(v) in
            let next =
              List.find
                (fun p' ->
                  Arch.Device.distance device p' q
                  = Arch.Device.distance device p q - 1)
                (Arch.Device.neighbors device p)
            in
            apply_swap p next
          done;
          ignore (execute_ready ());
          stall := 0
        end
        else begin
          let relevant = Array.make n_phys false in
          List.iter
            (fun (_, u, v) ->
              relevant.(cur.(u)) <- true;
              relevant.(cur.(v)) <- true)
            !pending;
          List.iter
            (fun (a, b) -> if relevant.(a) || relevant.(b) then apply_swap a b)
            rounds.(!round_ix mod n_rounds);
          incr round_ix;
          if execute_ready () then stall := 0 else incr stall
        end
      done
    in
    List.iter
      (fun g ->
        match g with
        | Quantum.Gate.Two { kind; control = u; target = v } ->
          pending := (kind, u, v) :: !pending
        | Quantum.Gate.One { kind; target = q } ->
          flush ();
          emit (Quantum.Gate.One { kind; target = cur.(q) })
        | Quantum.Gate.Measure { qubit; clbit } ->
          flush ();
          emit (Quantum.Gate.Measure { qubit = cur.(qubit); clbit })
        | Quantum.Gate.Barrier qs ->
          flush ();
          emit (Quantum.Gate.Barrier (List.map (fun q -> cur.(q)) qs)))
      (Quantum.Circuit.gates circuit);
    flush ();
    let physical =
      Quantum.Circuit.create
        ~n_clbits:(Quantum.Circuit.n_clbits circuit)
        ~n_qubits:n_phys (List.rev !out)
    in
    let routed =
      Satmap.Routed.create ~device
        ~initial:(Satmap.Mapping.of_array ~n_phys initial)
        ~final:(Satmap.Mapping.of_array ~n_phys cur)
        ~circuit:physical
    in
    Ok (routed, None)
  end
