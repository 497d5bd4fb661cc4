(* The SATMAP routers.  One block driver ([route_blocks]) solves a
   sequence of blocks with one seam/backtrack/escalation loop; the paper's
   three methods are its seam policies:

   - [route_monolithic]   : NL-SATMAP — the whole circuit is one block
                            (Section IV).
   - [route_sliced]       : SATMAP — blocks of [slice_size] two-qubit
                            gates, each pinned to the previous block's
                            final map, backtracking at the seams
                            (Section V).
   - [route_cyclic_body]  : CYC-SATMAP — the body's last block is tied back
                            to its first block's initial map, then the body
                            is repeated (Section VI); composes with slicing.
                            [route_cyclic] detects the body.
   - [route_portfolio]    : run several slice sizes, keep the cheapest
                            solution (how the paper reports SATMAP).

   All solvers are anytime: when the deadline interrupts the MaxSAT
   descent after a model was found, the best-so-far solution is used and
   the result is flagged as not proved optimal.  When a pinned seam makes
   a block unsatisfiable, the block's swap budget n escalates first
   (doubling, capped at the device diameter, which restores completeness);
   only then does the driver backtrack into the previous block.  A cyclic
   route never claims [proved_optimal]: its optimum is optimal only among
   routes that return to their initial map. *)

type config = {
  n_swaps : int;
  amo : Sat.Card.encoding;
  coalesce : bool;
  inject_all_gate_layers : bool;
  mobility : bool;
  objective : Encoding.objective;
  timeout : float;  (** seconds for the whole call *)
  solver_parallelism : int;
      (** CDCL domains per MaxSAT descent step: above 1, every block
          solve runs a clause-sharing {!Sat.Parallel} portfolio with
          cube-and-conquer splitting over the block's layer-0 map
          variables.  Forced back to 1 under [certify] (imported clauses
          are not RUP-derivable in the importer's own proof trace). *)
  backtrack_limit : int;
  max_vars : int;  (** memory guard on encoding size *)
  max_clauses : int;  (** memory guard on clause count (the 5 GB cap) *)
  accept_feasible : bool;
      (** accept best-so-far (non-optimal) models at the deadline — the
          anytime behaviour SATMAP gets from its MaxSAT solver.  The
          SMT-style baselines set this to false: optimal or nothing. *)
  verify : bool;
  certify : bool;
      (** log DRUP proofs in the MaxSAT engine and re-check every
          infeasible bound with the independent proof checker *)
  lint_blocks : bool;
      (** debug mode: statically analyse every block's instance before
          solving it and fail loudly on any Warning-or-worse finding *)
  fault_injection : (Encoding.solution -> Encoding.solution) option;
      (** test seam: corrupt every decoded block solution before it is
          replayed/emitted, so the downstream invariant checks
          ([emit]'s replay comparison, the verifier) can be exercised
          deterministically.  Never set outside tests. *)
  block_cache : block_cache option;
      (** serving-layer hook: consulted per block before the MaxSAT
          optimizer is invoked, so repeated block structure (QAOA bodies,
          identical slices across requests) stops paying the solver.  The
          router stays cache-agnostic — key construction (and its
          soundness: the key must cover every seam constraint in the
          {!block_query}, not just the gate stream) lives behind these two
          functions, implemented by [Service.Block_cache].  Disabled
          automatically under [certify], [lint_blocks] and
          [fault_injection]: cached solutions carry no proofs and must not
          mask the debug/test paths. *)
  on_improvement : (block:int -> iteration:int -> cost:int -> unit) option;
      (** anytime-progress hook: invoked from inside the MaxSAT descent
          after every satisfiable iteration, with the block index the
          router is currently solving and the model's cost.  The serving
          layer uses this to stream intermediate responses; costs are
          per-block (not whole-circuit) and may restart from a higher
          value when backtracking re-solves a seam. *)
  incremental : bool;
      (** share one solver across slices, retries and descent bounds (the
          encoding skeleton persists; per-slice clauses are activated by
          assumption).  Forced off under [certify] — assumption-activated
          bounds are not DRUP-replayable — and under parallel solving. *)
  reuse_window : int;
      (** activations per shared solver before it is rebuilt *)
  warm_session : Encoding.Session.t option;
      (** serving-layer hook: a pre-warmed session whose skeleton may
          already match this route's blocks, so even the first block
          skips skeleton emission.  [None] gives each route a private
          session. *)
  initial_map : int array option;
      (** externally supplied initial placement (log -> phys), e.g. from
          the QAP seeder: pins the whole-circuit initial map under
          [route_monolithic] and the first slice under [route_sliced].
          The optimum found is then optimal {e given} the seed, not
          globally.  Ignored by the cyclic relaxation, whose initial map
          must stay free to close the loop. *)
}

(* Everything a block's solution depends on.  A cache keyed on any strict
   subset of these fields is unsound: a solution found under a pinned
   seam, a blocked final map, the cyclic tie, extra post slots or a
   different swap budget is not interchangeable with one found without. *)
and block_query = {
  bq_device : Arch.Device.t;
  bq_slice : Quantum.Circuit.t;
  bq_n_swaps : int;  (** the budget actually used (after escalation) *)
  bq_post_slots : int;
  bq_cyclic : bool;
  bq_fixed_initial : int array option;
  bq_fixed_final : int array option;
  bq_blocked_finals : int array list;
}

and block_cache = {
  bc_find : config -> block_query -> Encoding.solution option;
  bc_store : config -> block_query -> Encoding.solution -> unit;
      (** only (locally) optimal solutions are offered for storage *)
}

let default_config =
  {
    n_swaps = 1;
    amo = Sat.Card.Sequential;
    coalesce = true;
    inject_all_gate_layers = true;
    mobility = true;
    objective = Encoding.Count_swaps;
    timeout = 30.0;
    solver_parallelism = 1;
    backtrack_limit = 24;
    max_vars = 500_000;
    max_clauses = 4_000_000;
    accept_feasible = true;
    verify = true;
    certify = false;
    lint_blocks = false;
    fault_injection = None;
    block_cache = None;
    on_improvement = None;
    incremental = true;
    reuse_window = 16;
    warm_session = None;
    initial_map = None;
  }

let m_blocks = Obs.Metrics.counter "router.blocks"
let m_backtracks = Obs.Metrics.counter "router.backtracks"
let m_escalations = Obs.Metrics.counter "router.escalations"
let m_routes = Obs.Metrics.counter "router.routes"

type stats = {
  time : float;
  n_backtracks : int;
  n_blocks : int;
  proved_optimal : bool;
  escalations : int;
  maxsat_iterations : int;
  certified : bool;
      (** certification was on, every block reached its (locally)
          optimal cost, the independent checker accepted every
          infeasibility proof — and at least one proof was actually
          checked.  A route that never produced an UNSAT bound (e.g. a
          trivial or cost-0 route) verified nothing and must not claim
          certification. *)
  proofs_checked : int;  (** infeasibility proofs independently checked *)
  proof_events : int;  (** learnt/delete trace events across all blocks *)
  certify_time : float;  (** seconds spent in the proof checker *)
  solver_calls : int;
      (** [Maxsat.Optimizer.solve] invocations this route actually paid
          for; block-cache hits skip the call, so under a warm cache this
          drops below [n_blocks] (to zero when every block hits) *)
}

type outcome =
  | Routed of Routed.t * stats
  | Failed of string

let spec_of_config ~n_swaps ~post_slots config device =
  Encoding.spec ~n_swaps ~post_slots ~amo:config.amo ~coalesce:config.coalesce
    ~inject_all_gate_layers:config.inject_all_gate_layers
    ~mobility:config.mobility ~objective:config.objective device

(* ------------------------------------------------------------------ *)
(* Emission: turn an encoding solution into a routed physical circuit *)

let emit ~device ~circuit enc (sol : Encoding.solution) =
  let n_phys = Arch.Device.n_qubits device in
  let cur = Array.copy sol.initial in
  let phys_to_log = Array.make n_phys (-1) in
  Array.iteri (fun q p -> phys_to_log.(p) <- q) cur;
  let out = ref [] in
  let push g = out := g :: !out in
  let emit_swap (a, b) =
    push (Quantum.Gate.swap a b);
    let qa = phys_to_log.(a) and qb = phys_to_log.(b) in
    phys_to_log.(a) <- qb;
    phys_to_log.(b) <- qa;
    if qa >= 0 then cur.(qa) <- b;
    if qb >= 0 then cur.(qb) <- a
  in
  let emit_slot s =
    match sol.slot_swaps.(s) with
    | Some edge -> emit_swap edge
    | None -> ()
  in
  (* Which step each two-qubit gate occurrence belongs to. *)
  let step_of_occ =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i (st : Encoding.step) -> Array.make st.multiplicity i)
            (Encoding.steps enc)))
  in
  let occ = ref 0 in
  let last_step = ref (-1) in
  List.iter
    (fun gate ->
      match gate with
      | Quantum.Gate.Two { kind; control; target } ->
        let step = step_of_occ.(!occ) in
        incr occ;
        if step > !last_step then begin
          List.iter emit_slot (Encoding.slots_before_step enc step);
          last_step := step
        end;
        push
          (Quantum.Gate.Two
             { kind; control = cur.(control); target = cur.(target) })
      | Quantum.Gate.One { kind; target } ->
        push (Quantum.Gate.One { kind; target = cur.(target) })
      | Quantum.Gate.Measure { qubit; clbit } ->
        push (Quantum.Gate.Measure { qubit = cur.(qubit); clbit })
      | Quantum.Gate.Barrier qs ->
        push (Quantum.Gate.Barrier (List.map (fun q -> cur.(q)) qs)))
    (Quantum.Circuit.gates circuit);
  List.iter emit_slot (Encoding.post_slot_indices enc);
  if cur <> sol.final then
    failwith "Router.emit: decoded final map disagrees with replay";
  let physical =
    Quantum.Circuit.create
      ~n_clbits:(Quantum.Circuit.n_clbits circuit)
      ~n_qubits:n_phys (List.rev !out)
  in
  Routed.create ~device
    ~initial:(Mapping.of_array ~n_phys sol.initial)
    ~final:(Mapping.of_array ~n_phys sol.final)
    ~circuit:physical

(* ------------------------------------------------------------------ *)
(* Solving one block *)

type block_solution = {
  enc : Encoding.t;
  sol : Encoding.solution;
  optimal : bool;
  iterations : int;
  cert : Maxsat.Certify.report option;
}

type block_result =
  | Block_solved of block_solution
  | Block_unsat
  | Block_timeout
  | Block_encode_timeout
  | Block_too_large

(* Aggregate per-block certification reports into the stats fields:
   certified iff certification was requested, every block was solved to
   (local) optimality, and the checker accepted every block's
   infeasibility proof.  Sliced routes are only locally optimal
   ([proved_optimal] stays false for n > 1), but each block's optimum is
   still individually certified. *)
let cert_fields ~config ~all_optimal reports =
  if not config.certify then (false, 0, 0, 0.)
  else begin
    let all_present = List.for_all Option.is_some reports in
    let merged =
      List.fold_left
        (fun acc r ->
          Maxsat.Certify.merge acc
            (Option.value ~default:Maxsat.Certify.empty r))
        Maxsat.Certify.empty reports
    in
    (* A vacuous report (zero proofs checked — trivial routes, cost-0
       optima) verified nothing: [certified] must stay false however
       "ok" the empty aggregate looks. *)
    ( all_optimal && all_present
      && Maxsat.Certify.ok merged
      && not (Maxsat.Certify.vacuous merged),
      merged.Maxsat.Certify.proofs_checked,
      merged.Maxsat.Certify.trace_events,
      merged.Maxsat.Certify.check_time )
  end

(* Split the remaining budget evenly over the remaining blocks so an
   early block cannot starve the rest while polishing optimality; the
   optimizer keeps its best model when its share runs out.  The floor of
   0.1 s keeps a knife-edge remainder from rounding a block's share down
   to nothing mid-backtrack (the share is still capped at [deadline]
   itself, so the floor never extends the overall budget). *)
let slice_budget ~deadline ~now ~blocks_remaining =
  if blocks_remaining < 1 then
    invalid_arg "Router.slice_budget: blocks_remaining < 1";
  let remaining = deadline -. now in
  Float.min deadline
    (now +. Float.max 0.1 (remaining /. float_of_int blocks_remaining))

(* Map the optimizer's verdict on one block to a block result.  Factored
   out (and exposed) because the mapping itself carries an invariant worth
   pinning in tests: [Timeout] means "deadline expired before any model",
   full stop, and must classify as [Block_timeout].  An earlier version
   re-read the clock here and reclassified a late-returning [Timeout] as
   [Block_unsat] when the wall clock had drifted back under the deadline —
   which sent the sliced router into pointless seam backtracking (and
   budget escalation) on blocks that were never infeasible. *)
let classify_block_result ~config enc (result : Maxsat.Optimizer.result) =
  let solved ~optimal (o : Maxsat.Optimizer.outcome) =
    let sol = Encoding.decode enc o.model in
    let sol = match config.fault_injection with None -> sol | Some f -> f sol in
    Block_solved
      { enc; sol; optimal; iterations = o.iterations; cert = o.certificate }
  in
  match result with
  | Maxsat.Optimizer.Optimal o -> solved ~optimal:true o
  | Maxsat.Optimizer.Feasible o ->
    if config.accept_feasible then solved ~optimal:false o else Block_timeout
  | Maxsat.Optimizer.Unsatisfiable _ -> Block_unsat
  | Maxsat.Optimizer.Timeout -> Block_timeout

(* The cache only serves blocks whose solutions the rest of the pipeline
   can take at face value: no proof obligations, no lint instrumentation,
   no fault injection between decode and replay. *)
let block_cache_of config =
  match config.block_cache with
  | Some c
    when (not config.certify) && (not config.lint_blocks)
         && config.fault_injection = None ->
    Some c
  | Some _ | None -> None

(* More racing domains than cores is pure timesharing loss; cap at the
   machine budget like the serving layer does. *)
let effective_jobs config =
  max 1 (min config.solver_parallelism (Domain.recommended_domain_count ()))

(* Incremental sessions only serve the plain sequential path: parallel
   portfolios own their solvers, certification needs permanent bound
   clauses, and lint inspects a complete instance. *)
let session_for config =
  if
    config.incremental
    && effective_jobs config = 1
    && (not config.certify) && not config.lint_blocks
  then
    match config.warm_session with
    | Some s -> Some s
    | None -> Some (Encoding.Session.create ~window:config.reuse_window ())
  else None

(* What a route derives from its config once and hands to every block. *)
type route_env = {
  session : Encoding.Session.t option;  (** already vetted by [session_for] *)
  cache : block_cache option;
  jobs : int;
}

let route_env config =
  {
    session = session_for config;
    cache = block_cache_of config;
    jobs = effective_jobs config;
  }

(* The seam constraints the driver puts on one block. *)
type seam = {
  fixed_initial : int array option;
  fixed_final : int array option;
  tie : bool;  (** the encoding's own final = initial (cyclic) tie *)
  blocked_finals : int array list;
  want_post : bool;  (** post slots after the last gate, to restore a tie *)
}

let solve_block ~config ~env ~deadline ~device ~seam ~n_swaps ~block_ix
    circuit =
  let post_slots = if seam.want_post then n_swaps else 0 in
  let spec = spec_of_config ~n_swaps ~post_slots config device in
  let { fixed_initial; fixed_final; tie = cyclic; blocked_finals; _ } = seam in
  if Unix.gettimeofday () > deadline then (Block_timeout, 0)
  else if
    Encoding.estimate_vars spec circuit > config.max_vars
    || Encoding.estimate_clauses spec circuit > config.max_clauses
  then (Block_too_large, 0)
  else begin
    let query () =
      {
        bq_device = device;
        bq_slice = circuit;
        bq_n_swaps = n_swaps;
        bq_post_slots = post_slots;
        bq_cyclic = cyclic;
        bq_fixed_initial = fixed_initial;
        bq_fixed_final = fixed_final;
        bq_blocked_finals = blocked_finals;
      }
    in
    let report =
      Option.map
        (fun f ~iteration ~cost ~stats:_ -> f ~block:block_ix ~iteration ~cost)
        config.on_improvement
    in
    let store_optimal result =
      match (result, env.cache) with
      | Block_solved b, Some c when b.optimal ->
        c.bc_store config (query ()) b.sol
      | _ -> ()
    in
    match Option.map (fun c -> c.bc_find config (query ())) env.cache with
    | Some (Some sol) ->
      (* Hit: neither the solver nor clause emission is paid — the
         layout-only structure is enough for [emit] to replay the cached
         solution through the step/slot schedule. *)
      ( Block_solved
          {
            enc = Encoding.structure spec circuit;
            sol;
            optimal = true;
            iterations = 0;
            cert = None;
          },
        0 )
    | Some None | None -> (
      match env.session with
      | Some sess when Encoding.Session.supported spec -> (
        (* Incremental path: reuse (or build) the shared skeleton and emit
           only this block's gate layer and seam constraints, then run the
           descent over the persistent solver. *)
        match
          Encoding.Session.prepare ~deadline ?fixed_initial ?fixed_final
            ~cyclic ~blocked_finals sess spec circuit
        with
        | exception Encoding.Encode_timeout -> (Block_encode_timeout, 0)
        | act ->
          let os =
            Maxsat.Optimizer.attach ~assumptions:act.a_assumptions
              ~bounds:act.a_bounds ~solver:act.a_solver ~relax:act.a_relax ()
          in
          let result =
            classify_block_result ~config act.a_enc
              (Maxsat.Optimizer.resume ~deadline ?report os)
          in
          store_optimal result;
          (result, 1))
      | _ -> (
        match
          Encoding.build ~deadline ?fixed_initial ?fixed_final ~cyclic
            ~blocked_finals spec circuit
        with
        | exception Encoding.Encode_timeout -> (Block_encode_timeout, 0)
        | enc ->
          if config.lint_blocks then begin
            (* Pinned, blocked, or cyclic blocks may legitimately refute at
               level 0 (that is the seam-backtracking signal), so a level-0
               conflict is only an error on unconstrained blocks. *)
            let expect_sat =
              fixed_initial = None && fixed_final = None && (not cyclic)
              && blocked_finals = []
            in
            let report = Encoding_lint.check_full ~expect_sat enc in
            if not (Lint.Report.is_clean ~at_least:Lint.Report.Warning report)
            then
              failwith
                (Format.asprintf "Router: block failed lint (%s)@\n%a"
                   (Lint.Report.summary report) Lint.Report.pp report)
          end;
          let jobs = env.jobs in
          let cube_vars = if jobs > 1 then Encoding.branch_vars enc else [] in
          let result =
            classify_block_result ~config enc
              (Maxsat.Optimizer.solve ~deadline ~certify:config.certify
                 ?report ~jobs ~cube_vars (Encoding.instance enc))
          in
          store_optimal result;
          (result, 1)))
  end

let block_result_label = function
  | Block_solved b -> if b.optimal then "optimal" else "feasible"
  | Block_unsat -> "unsat"
  | Block_timeout -> "timeout"
  | Block_encode_timeout -> "encode_timeout"
  | Block_too_large -> "too_large"

(* Escalate the block's swap budget on unsat seams: double n until the
   device diameter, which always suffices for a pinned initial map. *)
let solve_block_escalating ~config ~env ~deadline ~device ~seam ~block_ix
    ~n_blocks circuit =
  let span =
    if Obs.Trace.enabled () then
      Obs.Trace.start "router.block"
        ~args:
          [
            ("slice", Obs.Trace.Int block_ix);
            ("n_slices", Obs.Trace.Int n_blocks);
            ( "two_qubit_gates",
              Obs.Trace.Int (Quantum.Circuit.count_two_qubit circuit) );
            ("n_swaps", Obs.Trace.Int config.n_swaps);
          ]
    else Obs.Trace.null_span
  in
  let diameter = max 1 (Arch.Device.diameter device) in
  let rec attempt n_swaps escalations calls =
    let result, c =
      solve_block ~config ~env ~deadline ~device ~seam ~n_swaps ~block_ix
        circuit
    in
    match result with
    | Block_unsat when n_swaps < diameter ->
      attempt (min diameter (2 * n_swaps)) (escalations + 1) (calls + c)
    | other -> (other, escalations, calls + c)
  in
  let result, escalations, solver_calls = attempt config.n_swaps 0 0 in
  Obs.Metrics.incr m_blocks;
  Obs.Metrics.add m_escalations escalations;
  if span != Obs.Trace.null_span then
    Obs.Trace.stop span
      ~args:
        [
          ("result", Obs.Trace.Str (block_result_label result));
          ("escalations", Obs.Trace.Int escalations);
        ];
  (result, escalations, solver_calls)

(* ------------------------------------------------------------------ *)
(* Trivial case: no two-qubit gates at all *)

let route_trivial ~device circuit =
  let n_log = Quantum.Circuit.n_qubits circuit in
  let n_phys = Arch.Device.n_qubits device in
  let ident = Array.init n_log Fun.id in
  let mapping = Mapping.of_array ~n_phys ident in
  let physical =
    Quantum.Circuit.create
      ~n_clbits:(Quantum.Circuit.n_clbits circuit)
      ~n_qubits:n_phys
      (Quantum.Circuit.gates circuit)
  in
  Routed.create ~device ~initial:mapping ~final:mapping ~circuit:physical

let check ~config ~original routed =
  if config.verify then Verifier.check_exn ~original routed

(* Routing-internal invariant violations — [emit]'s replay comparison,
   block lint findings, seam bookkeeping, the post-route verifier — all
   raise [Failure].  Catch them at the public [route_*] boundary and
   return [Failed] so callers (and the CLI's exit-code contract) see a
   routing failure rather than an escaped exception.  [Invalid_argument]
   still escapes: misusing the API is the caller's bug, not a routing
   outcome. *)
let guard_failures f =
  Obs.Metrics.incr m_routes;
  try f () with Failure msg -> Failed msg

(* ------------------------------------------------------------------ *)
(* The block driver *)

type slice_state = {
  slice : Quantum.Circuit.t;
  mutable blocked : int array list;
  mutable solution : block_solution option;
}

(* The one [stats] builder.  Only a lone, non-cyclic block whose descent
   finished proves a global optimum: sliced optima are local to their
   seams, and a cyclic body's optimum is optimal only among routes whose
   final map equals their initial map — the unconstrained circuit can be
   cheaper (star_hub x3 on linear 8: 12 swaps cyclic, 11 monolithic). *)
let route_stats ~config ~start ~n_blocks ~claims_optimal ~backtracks
    ~escalations ~solver_calls blocks =
  let all_optimal = List.for_all (fun b -> b.optimal) blocks in
  let certified, proofs_checked, proof_events, certify_time =
    cert_fields ~config ~all_optimal (List.map (fun b -> b.cert) blocks)
  in
  {
    time = Unix.gettimeofday () -. start;
    n_backtracks = backtracks;
    n_blocks;
    proved_optimal = claims_optimal && all_optimal;
    escalations;
    maxsat_iterations =
      List.fold_left (fun acc b -> acc + b.iterations) 0 blocks;
    certified;
    proofs_checked;
    proof_events;
    certify_time;
    solver_calls;
  }

(* NL-SATMAP, SATMAP and CYC-SATMAP are one encoding solved over a
   sequence of blocks; they differ only in the seam constraints, so one
   driver runs all three (see [route_monolithic], [route_sliced],
   [route_cyclic_body]).  The blocks are [body] cut into slices of
   [slice_size] two-qubit gates, or [body] whole without one; the route
   is [body] repeated [repetitions] times when [cyclic].

   Seams: block i > 0 is pinned to block i - 1's final map.  Block 0 is
   pinned to [config.initial_map], except in a cyclic route, whose initial
   map must stay free to close the loop.  A cyclic route ties its last
   block's final map to block 0's initial map (a lone block uses the
   encoding's own final = initial tie) and gives that block post slots so
   the restoring swaps fit after its last gate.

   Each block splits the remaining budget with the blocks after it
   ([slice_budget]) and first escalates its own swap budget when a seam
   is unsatisfiable ([solve_block_escalating]); if it is still
   unsatisfiable, the previous block's final map is blocked and that block
   re-solved, up to [config.backtrack_limit] times per route. *)
let route_blocks ~config ~cyclic ~repetitions ?slice_size device body =
  guard_failures @@ fun () ->
  let start = Unix.gettimeofday () in
  let deadline = start +. config.timeout in
  let original =
    if cyclic then Quantum.Circuit.repeat body repetitions else body
  in
  if Quantum.Circuit.n_qubits body > Arch.Device.n_qubits device then
    Failed "circuit does not fit on the device"
  else if Quantum.Circuit.count_two_qubit body = 0 then begin
    let routed = route_trivial ~device original in
    check ~config ~original routed;
    Routed
      ( routed,
        route_stats ~config ~start ~n_blocks:1 ~claims_optimal:true
          ~backtracks:0 ~escalations:0 ~solver_calls:0 [] )
  end
  else begin
    let slices =
      Option.fold slice_size ~none:[ body ]
        ~some:(fun slice_size ->
          Quantum.Circuit.slice_by_two_qubit body ~slice_size)
      |> List.map (fun s -> { slice = s; blocked = []; solution = None })
      |> Array.of_list
    in
    let n = Array.length slices in
    let env = route_env config in
    let solution_of i =
      match slices.(i).solution with
      | Some b -> b
      | None -> failwith "Router: previous slice unsolved"
    in
    let backtracks = ref 0 in
    let escalations = ref 0 in
    let solver_calls = ref 0 in
    let failure = ref None in
    let i = ref 0 in
    while !failure = None && !i < n do
      let st = slices.(!i) in
      let last = !i = n - 1 in
      let seam =
        {
          fixed_initial =
            (if !i > 0 then Some (solution_of (!i - 1)).sol.final
             else if cyclic then None
             else config.initial_map);
          fixed_final =
            (if cyclic && last && n > 1 then Some (solution_of 0).sol.initial
             else None);
          tie = cyclic && n = 1;
          blocked_finals = st.blocked;
          want_post = cyclic && last;
        }
      in
      let block_deadline =
        slice_budget ~deadline ~now:(Unix.gettimeofday ())
          ~blocks_remaining:(n - !i)
      in
      let result, esc, calls =
        solve_block_escalating ~config ~env ~deadline:block_deadline ~device
          ~seam ~block_ix:!i ~n_blocks:n st.slice
      in
      escalations := !escalations + esc;
      solver_calls := !solver_calls + calls;
      match result with
      | Block_solved b ->
        st.solution <- Some b;
        incr i
      | Block_unsat ->
        if !i = 0 then
          failure :=
            Some
              (if n = 1 then "unsatisfiable encoding"
               else "slice 0 unsatisfiable")
        else if !backtracks >= config.backtrack_limit then
          failure := Some "backtracking budget exhausted"
        else begin
          (* Block the previous slice's final map and re-solve it. *)
          incr backtracks;
          Obs.Metrics.incr m_backtracks;
          Obs.Trace.instant "router.backtrack"
            ~args:[ ("slice", Obs.Trace.Int !i) ];
          let prev = slices.(!i - 1) in
          prev.blocked <- (solution_of (!i - 1)).sol.final :: prev.blocked;
          prev.solution <- None;
          decr i
        end
      | Block_timeout -> failure := Some "timeout"
      | Block_encode_timeout -> failure := Some "encode timeout"
      | Block_too_large -> failure := Some "encoding exceeds memory guard"
    done;
    match !failure with
    | Some msg -> Failed msg
    | None ->
      let blocks = List.init n solution_of in
      let routed_body =
        Routed.stitch
          (List.map2
             (fun st b -> emit ~device ~circuit:st.slice b.enc b.sol)
             (Array.to_list slices) blocks)
      in
      let routed =
        if cyclic then Routed.repeat routed_body repetitions else routed_body
      in
      check ~config ~original routed;
      Routed
        ( routed,
          route_stats ~config ~start ~n_blocks:n
            ~claims_optimal:((not cyclic) && n = 1)
            ~backtracks:!backtracks ~escalations:!escalations
            ~solver_calls:!solver_calls blocks )
  end

(* NL-SATMAP: the whole circuit is one block. *)
let route_monolithic ?(config = default_config) device circuit =
  route_blocks ~config ~cyclic:false ~repetitions:1 device circuit

(* SATMAP: blocks of [slice_size] two-qubit gates. *)
let route_sliced ?(config = default_config) ~slice_size device circuit =
  route_blocks ~config ~cyclic:false ~repetitions:1 ~slice_size device circuit

(* CYC-SATMAP: route the body under the cyclic tie, then repeat it; sliced
   when [slice_size] is given (Section VI composed with Section V). *)
let route_cyclic_body ?(config = default_config) ?slice_size ~repetitions
    device body =
  if repetitions < 1 then invalid_arg "Router.route_cyclic_body";
  route_blocks ~config ~cyclic:true ~repetitions ?slice_size device body

let default_slice_size = 25

(* Auto-detect the repeated body. *)
let route_cyclic ?(config = default_config) ?slice_size device circuit =
  match Quantum.Circuit.detect_repetition circuit with
  | Some (body, repetitions) when repetitions >= 2 ->
    route_cyclic_body ~config ?slice_size ~repetitions device body
  | Some _ | None ->
    route_sliced ~config
      ~slice_size:(Option.value slice_size ~default:default_slice_size)
      device circuit

(* ------------------------------------------------------------------ *)
(* Portfolio: the paper's reporting mode — try several slice sizes, keep
   the best solution found. *)

(* The cheapest routed member, with every member's outcome. *)
let best_of results =
  let best =
    List.fold_left
      (fun acc (_, outcome) ->
        match (acc, outcome) with
        | None, Routed (r, s) -> Some (r, s)
        | Some (r0, _), Routed (r, s)
          when Routed.added_cnots r < Routed.added_cnots r0 ->
          Some (r, s)
        | acc, (Routed _ | Failed _) -> acc)
      None results
  in
  match best with
  | Some (r, s) -> (Routed (r, s), results)
  | None -> (Failed "no slice size succeeded", results)

(* Each portfolio member gets its own span; under the parallel driver the
   recorded thread id is the member's domain id, so the trace viewer
   renders the members as parallel tracks. *)
let run_member ~config ~size device circuit =
  Obs.Trace.with_span "router.portfolio_member"
    ~args:[ ("slice_size", Obs.Trace.Int size) ]
    (fun () -> route_sliced ~config ~slice_size:size device circuit)

let route_portfolio ?(config = default_config) ?(sizes = [ 10; 25; 50; 100 ])
    device circuit =
  best_of
    (List.map
       (fun size -> (size, run_member ~config ~size device circuit))
       sizes)

(* Parallel portfolio: one domain per slice size, realising the paper's
   "parallel SAT-solving strategies" scaling avenue.  Every domain builds
   its own solver state; the shared device and circuit values are
   immutable, so no synchronisation is needed.  Spawns are chunked at the
   runtime's recommended domain count (minus the joining domain) rather
   than one domain per member unconditionally: oversubscribing cores
   makes every member slower without solving more. *)
let route_portfolio_parallel ?(config = default_config)
    ?(sizes = [ 10; 25; 50; 100 ]) device circuit =
  (* A warm session wraps one single-threaded solver; sharing it across
     member domains would race.  Each member gets a private session
     (created inside its own domain by [session_for]). *)
  let config = { config with warm_session = None } in
  let spawn size =
    ( size,
      Domain.spawn (fun () ->
          try run_member ~config ~size device circuit
          with exn -> Failed (Printexc.to_string exn)) )
  in
  let max_live = max 1 (Domain.recommended_domain_count () - 1) in
  let rec chunks = function
    | [] -> []
    | xs ->
      List.filteri (fun i _ -> i < max_live) xs
      :: chunks (List.filteri (fun i _ -> i >= max_live) xs)
  in
  best_of
    (List.concat_map
       (fun group ->
         let domains = List.map spawn group in
         List.map (fun (size, d) -> (size, Domain.join d)) domains)
       (chunks sizes))

(* ------------------------------------------------------------------ *)
(* One method value: the only place a method becomes a [route_*] call. *)

type method_ =
  | Monolithic
  | Sliced of int
  | Cyclic of int option
  | Portfolio of { parallel : bool }

let route ?(config = default_config) method_ device circuit =
  match method_ with
  | Monolithic -> route_monolithic ~config device circuit
  | Sliced slice_size -> route_sliced ~config ~slice_size device circuit
  | Cyclic slice_size -> route_cyclic ~config ?slice_size device circuit
  | Portfolio { parallel } ->
    let portfolio =
      if parallel then route_portfolio_parallel else route_portfolio
    in
    fst (portfolio ~config device circuit)
