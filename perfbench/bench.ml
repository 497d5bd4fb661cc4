(* The repository benchmark.

   Four workloads, each driven only through public entry points:
   compile-hard, compile-long and anytime-budget route QASM text with
   [Satmap.Router.route_sliced] in this process; serve-mixed drives a
   fresh [satmap serve --socket] process over its JSON-lines protocol on
   an open-loop schedule.  Every routed circuit is re-parsed and checked
   without trusting the router's own report.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --satmap EXE --work DIR

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with --trace 1.
   Lines before it are a human-readable report.  README.md in this
   directory defines every metric and the workloads. *)

let now = Unix.gettimeofday
let fi = float_of_int

(* ---- statistics ---------------------------------------------------- *)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    let pos = q *. fi (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. fi i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let fsum = List.fold_left ( +. ) 0.
let isum = List.fold_left ( + ) 0
let ratio a b = if b = 0. then 0. else a /. b

let geomean = function
  | [] -> 1.
  | l -> exp (fsum (List.map log l) /. fi (List.length l))

(* Peak resident set ([VmHWM]) of process [pid] ("self" for this one), MB. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fi kb /. 1024.) with
        | mb -> mb
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    in
    scan ()

(* ---- inputs and the output check ----------------------------------- *)

let device_name = "tokyo"

let device =
  lazy
    (match Arch.Topologies.by_name device_name with
    | Some d -> d
    | None -> failwith ("unknown device " ^ device_name))

(* What a failed route is charged: every two-qubit gate pays
   (diameter - 1) SWAPs.  A fixed function of the input, so no engine
   change can move it. *)
let naive_swaps device circuit =
  (Arch.Device.diameter device - 1) * Quantum.Circuit.count_two_qubit circuit

let count_swaps circuit =
  List.length
    (List.filter
       (function
         | Quantum.Gate.Two { kind = Quantum.Gate.Swap; _ } -> true
         | _ -> false)
       (Quantum.Circuit.gates circuit))

(* Re-parse the emitted QASM and check it against the circuit that was
   asked for: every two-qubit gate on a device edge, the SWAP count equal
   to the reported one, and the independent verifier satisfied. *)
let check_output ~device ~original ~initial ~final ~swaps qasm =
  let check () =
    let routed =
      Obs.Trace.with_span "bench.parse" (fun () -> Quantum.Qasm.of_string qasm)
    in
    let off_edge =
      List.exists
        (function
          | Quantum.Gate.Two { control; target; _ } ->
            not (Arch.Device.adjacent device control target)
          | _ -> false)
        (Quantum.Circuit.gates routed)
    in
    let inserted = count_swaps routed - count_swaps original in
    if off_edge then Error "a two-qubit gate is off the device's edges"
    else if inserted <> swaps then
      Error (Printf.sprintf "%d SWAPs in the output, %d reported" inserted swaps)
    else
      let n_phys = Arch.Device.n_qubits device in
      let map a = Satmap.Mapping.of_array ~n_phys a in
      let r =
        Satmap.Routed.create ~device ~initial:(map initial) ~final:(map final)
          ~circuit:routed
      in
      match Satmap.Verifier.check ~original r with
      | [] -> Ok ()
      | f :: _ -> Error ("verifier: " ^ Satmap.Verifier.failure_to_string f)
  in
  match Obs.Trace.with_span "bench.verify" check with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

(* One operation: a route (compile workloads) or a request (serve-mixed). *)
type op = {
  name : string;
  latency : float;  (** start (or scheduled send) to checked result, s *)
  ok : bool;  (** routed, and the output check passed *)
  bad_output : bool;  (** routed, but the output check rejected it *)
  swaps : int;  (** inserted SWAPs; meaningful only when [ok] *)
  naive : int;
  budget : float;  (** the operation's time budget, s *)
  why : string;  (** failure reason; [""] when ok *)
}

(* A failed operation is charged the time it took plus a retry with its
   whole budget, and the naive SWAP count, so a fix that turns a failure
   into a verified result within the budget can only improve the
   metrics. *)
let charged_latency o = if o.ok then o.latency else o.latency +. o.budget
let charged_swaps o = if o.ok then o.swaps else o.naive
let swap_ratio o = if o.ok then fi (o.swaps + 1) /. fi (o.naive + 1) else 1.

(* Operations whose charged latency is within this limit count towards
   goodput. *)
let goodput_limit = 5.0

(* ---- results ------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_result r =
  print_endline "";
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.m_name x.m_value x.m_unit)
    r.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d\n" r.correct r.attempted
    r.failed;
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
              (num x.m_value) x.m_unit)
          r.metrics))

(* Per-operation latency percentiles, a failure charged its retry.  Too
   jittery on a shared two-core machine to carry a bound (serve-mixed's
   sub-millisecond median moved by 35-70% between runs), so they are
   printed with the end-to-end metrics and recorded by the traced run. *)
let latency_metrics ops =
  let latencies = List.map charged_latency ops in
  [
    m "latency_p50_s" "s" (quantile 0.5 latencies);
    m "latency_p90_s" "s" (quantile 0.9 latencies);
  ]

(* The end-to-end metrics from timed passes, each its wall time and its
   operations.  Serve-mixed has one pass: from the schedule's start to the
   last reply. *)
let end_to_end ~setup_s ~rss passes =
  let all = List.concat_map snd passes in
  let per_pass f = median (List.map (fun (_, ops) -> f ops) passes) in
  let retries ops =
    fsum (List.map (fun o -> if o.ok then 0. else o.budget) ops)
  in
  let n_ok = List.length (List.filter (fun o -> o.ok) all) in
  let good =
    List.length
      (List.filter (fun o -> o.ok && o.latency <= goodput_limit) all)
  in
  let report_only =
    [ m "failed_frac" "ratio" (1. -. ratio (fi n_ok) (fi (List.length all))) ]
    @ latency_metrics all
  in
  List.iter
    (fun x ->
      Printf.printf "  %-34s %16.6f %s (reported, not bounded)\n" x.m_name
        x.m_value x.m_unit)
    report_only;
  [
    m "setup_s" "s" setup_s;
    m "compile_s" "s"
      (median (List.map (fun (wall, ops) -> wall +. retries ops) passes));
    m "swaps_total" "count"
      (per_pass (fun p -> fi (isum (List.map charged_swaps p))));
    m "anytime_swap_ratio" "ratio"
      (per_pass (fun p -> geomean (List.map swap_ratio p)));
    m "ok_frac" "ratio" (ratio (fi n_ok) (fi (List.length all)));
    m "goodput_5s_rps" "1/s" (ratio (fi good) (fsum (List.map fst passes)));
    m "peak_rss_mb" "MB" rss;
  ]

let tally passes =
  let all = List.concat passes in
  ( List.length all,
    List.length (List.filter (fun o -> not o.ok) all),
    List.exists (fun o -> o.bad_output) all )

(* ---- trace analysis ------------------------------------------------ *)

(* Self time per span name (span minus its direct children, nesting
   recovered per thread id), and the summed duration of top-level spans,
   both in seconds. *)
let self_times (events : (string * int * float * float) list) =
  let self = Hashtbl.create 16 in
  let add name s =
    Hashtbl.replace self name
      (s +. Option.value ~default:0. (Hashtbl.find_opt self name))
  in
  let top = ref 0. in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun ((_, tid, _, _) as e) ->
      Hashtbl.replace by_tid tid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid tid)))
    events;
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort
          (fun (_, _, ts1, d1) (_, _, ts2, d2) -> compare (ts1, -.d1) (ts2, -.d2))
          evs
      in
      (* stack of (name, end, duration, children total ref) *)
      let stack = ref [] in
      let close (name, _, dur, kids) = add name ((dur -. !kids) /. 1e6) in
      List.iter
        (fun (name, _, ts, dur) ->
          let rec unwind () =
            match !stack with
            | ((_, stop, _, _) as s) :: rest when stop <= ts ->
              close s;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (_, _, _, kids) :: _ -> kids := !kids +. dur
          | [] -> top := !top +. (dur /. 1e6));
          stack := (name, ts +. dur, dur, ref 0.) :: !stack)
        evs;
      List.iter close !stack)
    by_tid;
  (self, !top)

let recorded_spans () =
  List.filter_map
    (fun e ->
      match e.Obs.Trace.ph with
      | `Complete -> Some (e.name, e.tid, e.ts_us, e.dur_us)
      | `Instant | `Counter -> None)
    (Obs.Trace.events ())

let span_metrics self =
  let get name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  List.map
    (fun name -> m ("span." ^ name ^ ".self_s") "s" (get name))
    [
      "sat.solve"; "maxsat.iteration"; "router.block"; "bench.route";
      "service.request"; "service.cache_lookup";
    ]

(* ---- compile workloads --------------------------------------------- *)

type compile_workload = {
  circuits : string list;  (** [Workloads.Suite] names *)
  slice_size : int;
  budget : float;  (** [Router.config.timeout] per route, s *)
  guard : bool;  (** assert identical work counters in every pass *)
}

(* Why each circuit is in its set is recorded in README.md. *)
let compile_hard =
  {
    circuits =
      [ "toffoli-9q-012"; "random-7q-015"; "toffoli-7q-060"; "qft-7q-041";
        "local-11q-054" ];
    slice_size = 10;
    budget = 120.;
    guard = true;
  }

let compile_long =
  {
    circuits =
      [ "adder-8q-042"; "toffoli-5q-044"; "bv-3q-019"; "hea-5q-037" ];
    slice_size = 10;
    budget = 120.;
    guard = true;
  }

let anytime_budget =
  {
    circuits =
      [ "bv-9q-027"; "qft-12q-017"; "ghz-13q-000";
        (* the three known early aborts *)
        "random-15q-031"; "random-7q-111"; "bv-12q-003" ];
    slice_size = 10;
    budget = 4.;
    guard = false;
  }

type input = {
  in_name : string;
  qasm : string;
  reference : Quantum.Circuit.t;
  in_naive : int;
}

(* The set-up step: draw the circuits from the suite and serialise them
   to QASM text, in a seeded order.  The routes receive only the text. *)
let compile_inputs w ~seed =
  let device = Lazy.force device in
  let suite = Workloads.Suite.full () in
  let input name =
    match
      List.find_opt (fun (b : Workloads.Suite.benchmark) -> b.name = name) suite
    with
    | None -> failwith ("no suite circuit named " ^ name)
    | Some b ->
      {
        in_name = name;
        qasm = Quantum.Qasm.to_string b.circuit;
        reference = b.circuit;
        in_naive = naive_swaps device b.circuit;
      }
  in
  let a = Array.of_list (List.map input w.circuits) in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a

(* Work one route did, for the determinism guard and the layer report. *)
type work = {
  totals : Sat.Solver.totals;
  route_s : float;
  stats : Satmap.Router.stats option;
}

let route_one w (inp : input) =
  let device = Lazy.force device in
  let config = { Satmap.Router.default_config with timeout = w.budget } in
  let before = Sat.Solver.totals () in
  let t0 = now () in
  let route () =
    let circuit =
      Obs.Trace.with_span "bench.parse" (fun () -> Quantum.Qasm.of_string inp.qasm)
    in
    let r0 = now () in
    let outcome =
      Obs.Trace.with_span "bench.route" (fun () ->
          Satmap.Router.route_sliced ~config ~slice_size:w.slice_size device
            circuit)
    in
    let route_s = now () -. r0 in
    match outcome with
    | Satmap.Router.Failed why -> (Error (false, why), route_s, None)
    | Satmap.Router.Routed (routed, stats) -> (
      let qasm =
        Obs.Trace.with_span "bench.print" (fun () ->
            Quantum.Qasm.to_string (Satmap.Routed.circuit routed))
      in
      let swaps = Satmap.Routed.n_swaps routed in
      let maps f = Satmap.Mapping.to_array (f routed) in
      match
        check_output ~device ~original:inp.reference
          ~initial:(maps Satmap.Routed.initial) ~final:(maps Satmap.Routed.final)
          ~swaps qasm
      with
      | Ok () -> (Ok swaps, route_s, Some stats)
      | Error e -> (Error (true, "output check: " ^ e), route_s, Some stats))
  in
  let outcome, route_s, stats =
    match route () with
    | r -> r
    | exception e -> (Error (true, Printexc.to_string e), 0., None)
  in
  let latency = now () -. t0 in
  let totals = Sat.Solver.sub_totals (Sat.Solver.totals ()) before in
  let op =
    {
      name = inp.in_name;
      latency;
      ok = Result.is_ok outcome;
      bad_output = (match outcome with Error (bad, _) -> bad | Ok _ -> false);
      swaps = (match outcome with Ok s -> s | Error _ -> 0);
      naive = inp.in_naive;
      budget = w.budget;
      why = (match outcome with Error (_, why) -> why | Ok _ -> "");
    }
  in
  (op, { totals; route_s; stats })

(* Run [pass] repeatedly for about [seconds]: another pass starts only
   when the last one's duration still fits, and at least [min_passes]
   run. *)
let repeat_for ?(min_passes = 1) ~seconds pass =
  let t0 = now () in
  let rec loop i acc last =
    if i >= min_passes && now () -. t0 +. last > seconds then List.rev acc
    else
      let s = now () in
      let r = pass i in
      loop (i + 1) (r :: acc) (now () -. s)
  in
  loop 0 [] 0.

let fingerprint ((o : op), (wk : work)) =
  ( o.ok,
    o.swaps,
    wk.totals.Sat.Solver.total_propagations,
    wk.totals.Sat.Solver.total_conflicts,
    Option.map (fun s -> s.Satmap.Router.solver_calls) wk.stats )

(* Names of circuits whose work differed between passes. *)
let guard_violations passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.filter_map
      (fun (((o : op), _) as x) ->
        let same p =
          match List.find_opt (fun ((o' : op), _) -> o'.name = o.name) p with
          | Some y -> fingerprint y = fingerprint x
          | None -> false
        in
        if List.for_all same rest then None else Some o.name)
      first

let report_circuits w passes =
  Printf.printf "%-18s %9s %9s %6s %6s %9s %12s %9s  %s\n" "circuit" "latency_s"
    "min_s" "swaps" "naive" "headroom" "propagations" "conflicts" "outcome";
  match passes with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun ((o : op), (wk : work)) ->
        let mine =
          List.filter_map
            (fun p -> List.find_opt (fun ((o' : op), _) -> o'.name = o.name) p)
            passes
        in
        let headroom =
          List.fold_left
            (fun acc (_, (wk : work)) -> Float.max acc (wk.route_s /. w.budget))
            0. mine
        in
        let latencies = List.map (fun ((o : op), _) -> o.latency) mine in
        Printf.printf "%-18s %9.3f %9.3f %6d %6d %9.3f %12d %9d  %s\n" o.name
          (median latencies)
          (List.fold_left Float.min Float.infinity latencies)
          o.swaps o.naive headroom wk.totals.Sat.Solver.total_propagations
          wk.totals.Sat.Solver.total_conflicts
          (if o.ok then "ok" else "FAILED " ^ o.why))
      first

let compile_setup w ~seed =
  let times = ref [] in
  let inputs = ref [] in
  for _ = 1 to 5 do
    let t0 = now () in
    inputs := compile_inputs w ~seed;
    times := (now () -. t0) :: !times
  done;
  Printf.printf "setup_s=[%s]\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  (!inputs, median !times)

let run_compile w ~seed ~seconds =
  let inputs, setup_s = compile_setup w ~seed in
  let walls, passes =
    List.split
      (repeat_for ~seconds (fun _ ->
           let t0 = now () in
           let pass = List.map (route_one w) inputs in
           (now () -. t0, pass)))
  in
  report_circuits w passes;
  let violations = if w.guard then guard_violations passes else [] in
  List.iter
    (fun n ->
      Printf.printf "deadline-affected: %s did different work in different passes\n"
        n)
    violations;
  let ops = List.map (List.map fst) passes in
  let attempted, failed, bad = tally ops in
  (* The first pass of a deterministic workload warms the process up
     (heap growth, caches) and runs measurably slower; it is checked but
     not timed. *)
  let all = List.combine walls ops in
  let timed = match all with _ :: (_ :: _ as rest) when w.guard -> rest | _ -> all in
  Printf.printf "passes=%d timed=%d pass_s=[%s]\n" (List.length passes)
    (List.length timed)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  {
    correct = (not bad) && violations = [];
    attempted;
    failed;
    metrics = end_to_end ~setup_s ~rss:(peak_rss_mb "self") timed;
  }

(* ---- compile workloads, traced ------------------------------------- *)

let counter name = fi (Obs.Metrics.value (Obs.Metrics.counter name))

let counters names = List.map (fun n -> (n, counter n)) names

let delta after before =
  List.map2 (fun (n, a) (_, b) -> (n, a -. b)) after before

let lib_counters =
  [
    "maxsat.iterations"; "maxsat.solves"; "maxsat.optima_proved";
    "solver.created";
  ]

(* Time [Session.prepare] over the workload's slices, one fresh session
   per circuit, outside the route passes. *)
let prepare_slices w inputs =
  let device = Lazy.force device in
  let spec = Satmap.Encoding.spec device in
  let reused0 = counter "encode.reused_clauses" in
  let clauses = ref 0 in
  let t = ref 0. in
  List.iter
    (fun inp ->
      let session = Satmap.Encoding.Session.create () in
      List.iter
        (fun slice ->
          if Quantum.Circuit.count_two_qubit slice > 0 then begin
            let t0 = now () in
            let a =
              Obs.Trace.with_span "bench.prepare" (fun () ->
                  Satmap.Encoding.Session.prepare session spec slice)
            in
            t := !t +. (now () -. t0);
            let st = Satmap.Encoding.insertion_stats a.Satmap.Encoding.Session.a_enc in
            clauses := !clauses + st.Sat.Sink.clauses_seen
          end)
        (Quantum.Circuit.slice_by_two_qubit inp.reference ~slice_size:w.slice_size))
    inputs;
  (!t, fi !clauses, counter "encode.reused_clauses" -. reused0)

let time_canon inputs =
  let t0 = now () in
  List.iter (fun inp -> ignore (Service.Canon.canonical inp.reference)) inputs;
  now () -. t0

(* Per-layer figures of one traced pass. *)
let traced_pass w inputs =
  Obs.Trace.clear ();
  Obs.Trace.enable ~capacity:(1 lsl 20) ();
  let c0 = counters lib_counters in
  let t0 = now () in
  let pass = List.map (route_one w) inputs in
  let wall = now () -. t0 in
  let c = delta (counters lib_counters) c0 in
  let spans = recorded_spans () in
  let prepare_s, clauses, reused = prepare_slices w inputs in
  let canon_s = time_canon inputs in
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  let self, top = self_times spans in
  let get name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let works = List.map snd pass in
  let tot f = isum (List.map (fun (wk : work) -> f wk.totals) works) in
  let st f =
    isum
      (List.map
         (fun (wk : work) -> match wk.stats with Some s -> f s | None -> 0)
         works)
  in
  let solve_s =
    fsum (List.map (fun (wk : work) -> wk.totals.Sat.Solver.total_solve_time) works)
  in
  let route_s = fsum (List.map (fun (wk : work) -> wk.route_s) works) in
  let cv n = List.assoc n c in
  ( wall,
    [
      m "sat.solve_s" "s" solve_s;
      m "sat.props_per_s" "1/s"
        (ratio (fi (tot (fun t -> t.Sat.Solver.total_propagations))) solve_s);
      m "sat.propagations" "count"
        (fi (tot (fun t -> t.Sat.Solver.total_propagations)));
      m "sat.conflicts" "count" (fi (tot (fun t -> t.Sat.Solver.total_conflicts)));
      m "sat.decisions" "count" (fi (tot (fun t -> t.Sat.Solver.total_decisions)));
      m "maxsat.iterations" "count" (cv "maxsat.iterations");
      m "maxsat.solves" "count" (cv "maxsat.solves");
      m "maxsat.optima_proved_frac" "ratio"
        (ratio (cv "maxsat.optima_proved") (cv "maxsat.solves"));
      m "satmap.router.self_s" "s" (route_s -. solve_s);
      m "satmap.router.blocks" "count"
        (fi (st (fun s -> s.Satmap.Router.n_blocks)));
      m "satmap.router.escalations" "count"
        (fi (st (fun s -> s.Satmap.Router.escalations)));
      m "satmap.router.backtracks" "count"
        (fi (st (fun s -> s.Satmap.Router.n_backtracks)));
      m "satmap.router.solver_calls" "count"
        (fi (st (fun s -> s.Satmap.Router.solver_calls)));
      m "satmap.router.solvers_created" "count" (cv "solver.created");
      m "satmap.encoding.prepare_s" "s" prepare_s;
      m "satmap.encoding.clauses" "count" clauses;
      m "satmap.encoding.reused_clauses" "count" reused;
      m "quantum.parse_s" "s" (get "bench.parse");
      m "quantum.print_s" "s" (get "bench.print");
      m "satmap.verifier.check_s" "s" (get "bench.verify");
      m "service.canon_s" "s" canon_s;
      m "service.cache.hit_rate" "ratio" 0.;
      m "service.block_cache.hit_rate" "ratio" 0.;
      m "service.warm.hit_rate" "ratio" 0.;
      m "service.wait_s" "s" 0.;
      m "serving.coalesce_rate" "ratio" 0.;
      m "serving.admission.rejected" "count" 0.;
      m "loadgen.lag_s" "s" 0.;
      m "obs.attributed_frac" "ratio" (ratio top wall);
    ]
    @ latency_metrics (List.map fst pass)
    @ span_metrics self,
    List.map fst pass )

(* Alternate traced and untraced passes; every layer figure is the
   median over the traced ones.  A deterministic workload starts with its
   untraced warm-up pass, which the overhead figure leaves out. *)
let run_compile_traced w ~seed ~seconds =
  let inputs, _ = compile_setup w ~seed in
  let warm_up = if w.guard then 1 else 0 in
  let runs =
    repeat_for ~min_passes:(1 + warm_up) ~seconds (fun i ->
        if (i + warm_up) mod 2 = 0 then
          let wall, layers, ops = traced_pass w inputs in
          (`Traced wall, layers, ops)
        else
          let t0 = now () in
          let ops = List.map (fun inp -> fst (route_one w inp)) inputs in
          (`Plain (now () -. t0), [], ops))
  in
  let traced = List.filter_map (function `Traced t, l, _ -> Some (t, l) | _ -> None) runs in
  let plain =
    List.filteri (fun i _ -> i >= warm_up) runs
    |> List.filter_map (function `Plain t, _, _ -> Some t | _ -> None)
  in
  let overhead =
    match plain with
    | [] -> 0.
    | _ -> ratio (median (List.map fst traced)) (median plain) -. 1.
  in
  let names = List.map (fun x -> x.m_name) (snd (List.hd traced)) in
  let layer name =
    median
      (List.map
         (fun (_, l) -> (List.find (fun x -> x.m_name = name) l).m_value)
         traced)
  in
  let unit_of name =
    (List.find (fun x -> x.m_name = name) (snd (List.hd traced))).m_unit
  in
  let ops = List.map (fun (_, _, ops) -> ops) runs in
  let attempted, failed, bad = tally ops in
  Printf.printf "passes=%d traced=%d\n" (List.length runs) (List.length traced);
  {
    correct = not bad;
    attempted;
    failed;
    metrics =
      List.map (fun n -> m n (unit_of n) (layer n)) names
      @ [ m "obs.trace_overhead_frac" "ratio" overhead ];
  }

(* ---- serve-mixed --------------------------------------------------- *)

let serve_timeout = 10.

(* The request stream: a fixed seeded [Loadgen.plan] mix of distinct
   random circuits, exact duplicates and renamed duplicates, plus a
   family of longer circuits sharing a 12-gate prefix, sent with
   [slice_size] 6 so their first two blocks repeat across requests.
   [--seed] permutes the order and draws the Poisson arrival instants. *)
type scheduled = {
  due : float;  (** send instant, seconds after the schedule's start *)
  line : string;  (** the request, one JSON line *)
  reference : Quantum.Circuit.t;  (** the circuit asked for *)
}

let serve_inputs ~seed ~span =
  let base =
    Loadgen.plan
      {
        Loadgen.default_spec with
        n_requests = 200;
        duplicate_frac = 0.5;
        rename_frac = 0.3;
        n_unique = 30;
        n_qubits = 5;
        gates = 6;
        request_timeout = serve_timeout;
        seed = 7;
      }
  in
  let base =
    List.map (fun (p : Loadgen.plan_item) -> p.request) base
  in
  let family =
    let prefix =
      Workloads.Generators.local_random (Rng.create 101) ~n:5 ~gates:12
        ~locality:0.8
    in
    List.concat
      (List.init 8 (fun k ->
           let c =
             Quantum.Circuit.concat prefix
               (Workloads.Generators.local_random (Rng.create (200 + k)) ~n:5
                  ~gates:6 ~locality:0.8)
           in
           let perm = Array.init 5 Fun.id in
           Rng.shuffle (Rng.create (300 + k)) perm;
           List.map
             (fun c ->
               {
                 Service.Protocol.default_request with
                 qasm = Quantum.Qasm.to_string c;
                 device = device_name;
                 slice_size = Some 6;
                 timeout = serve_timeout;
               })
             [ c; Quantum.Circuit.relabel_qubits c (fun q -> perm.(q)) ]))
  in
  let reqs = Array.of_list (base @ family) in
  let rng = Rng.create seed in
  Rng.shuffle rng reqs;
  let n = Array.length reqs in
  (* Poisson arrivals, rescaled so the schedule always spans the same
     time. *)
  let gaps = Array.init n (fun _ -> -.Float.log (1. -. Rng.float rng)) in
  let total = Array.fold_left ( +. ) 0. gaps in
  let t = ref 0. in
  Array.mapi
    (fun i req ->
      let due = !t in
      t := !t +. (gaps.(i) *. span /. total);
      let req = { req with Service.Protocol.id = Printf.sprintf "b%04d" i } in
      let reference = Quantum.Qasm.of_string req.qasm in
      {
        due;
        line = Service.Protocol.request_to_string req ^ "\n";
        reference;
      })
    reqs

type server = { pid : int; sock : string; metrics_file : string; trace_file : string }

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* SIGINT makes [satmap serve] stop, drain and write its metrics/trace. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigint with Unix.Unix_error _ -> ());
  waitpid_retry s.pid

let start_server ~satmap ~work ~trace =
  let file name = Filename.concat work name in
  let s =
    {
      pid = 0;
      sock = file "serve.sock";
      metrics_file = file "serve-metrics.json";
      trace_file = file "serve-trace.json";
    }
  in
  (try Sys.remove s.sock with Sys_error _ -> ());
  let args =
    [ satmap; "serve"; "--socket"; s.sock; "--metrics=" ^ s.metrics_file ]
    @ if trace then [ "--trace"; s.trace_file ] else []
  in
  let log =
    Unix.openfile (file "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process satmap (Array.of_list args) null log log in
  Unix.close null;
  Unix.close log;
  let s = { s with pid } in
  let give_up = now () +. 60. in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith "satmap serve exited during start-up";
      if now () > give_up then begin
        stop_server s;
        failwith "satmap serve did not start accepting"
      end;
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  s

(* Open-loop generator: one thread, [select] over [connections] sockets,
   each request written at its scheduled instant.  Returns per request
   the actual send time, and the arrival time and text of its response
   line (if any), both relative to the schedule's start.  A connection
   the server closes or resets is dropped: its requests count as
   unanswered. *)
let drive ~sock ~connections schedule =
  let n = Array.length schedule in
  let fds =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  let sent = Array.make n nan in
  let replies = ref [] in
  let alive = Array.make connections true in
  let expected = Array.make connections 0 in
  let received = Array.make connections 0 in
  let drop c why =
    if alive.(c) then begin
      alive.(c) <- false;
      Printf.printf "connection %d lost: %s\n" c why
    end
  in
  let pending = Array.init connections (fun _ -> Buffer.create 65536) in
  let chunk = Bytes.create 65536 in
  let t0 = now () +. 0.02 in
  let last = if n = 0 then 0. else schedule.(n - 1).due in
  let give_up = t0 +. last +. serve_timeout +. 20. in
  let next = ref 0 in
  let rec write_all fd s off =
    if off < String.length s then
      write_all fd s (off + Unix.write_substring fd s off (String.length s - off))
  in
  let read_from c =
    match Unix.read fds.(c) chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (e, _, _) -> drop c (Unix.error_message e)
    | 0 -> drop c "closed by the server"
    | k ->
    let at = now () -. t0 in
    let buf = pending.(c) in
    Buffer.add_subbytes buf chunk 0 k;
    let s = Buffer.contents buf in
    let lines = String.split_on_char '\n' s in
    let rec consume = function
      | [ rest ] ->
        Buffer.clear buf;
        Buffer.add_string buf rest
      | line :: more ->
        replies := (at, line) :: !replies;
        received.(c) <- received.(c) + 1;
        consume more
      | [] -> ()
    in
    consume lines
  in
  let waiting () =
    !next < n
    || List.exists
         (fun c -> alive.(c) && received.(c) < expected.(c))
         (List.init connections Fun.id)
  in
  while waiting () && Array.exists Fun.id alive && now () < give_up do
    while !next < n && now () >= t0 +. schedule.(!next).due do
      let i = !next in
      let c = i mod connections in
      if alive.(c) then begin
        match write_all fds.(c) schedule.(i).line 0 with
        | () ->
          sent.(i) <- now () -. t0;
          expected.(c) <- expected.(c) + 1
        | exception Unix.Unix_error (e, _, _) -> drop c (Unix.error_message e)
      end;
      incr next
    done;
    (* Sleep until 2 ms before the next send, then poll, so the sleep's
       wake-up latency does not make the generator late. *)
    let wait =
      if !next < n then
        let due = t0 +. schedule.(!next).due -. now () in
        if due > 0.002 then due -. 0.002 else 0.
      else 0.1
    in
    let live = List.filteri (fun c _ -> alive.(c)) (Array.to_list fds) in
    (match Unix.select live [] [] wait with
    | readable, _, _ ->
      Array.iteri
        (fun c fd -> if alive.(c) && List.mem fd readable then read_from c)
        fds
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  Array.iter Unix.close fds;
  (sent, !replies)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_json path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let json_num key j =
  Option.value ~default:0. (Option.bind (Obs.Json.member key j) Obs.Json.number_value)

type reply = {
  r_op : op;
  r_time_s : float;  (** the server's own service time, s *)
  r_cache_hit : bool;
  r_coalesced : bool;
  r_lag : float;
}

(* Match responses to requests and check every returned circuit. *)
let serve_ops schedule sent replies =
  let device = Lazy.force device in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (at, line) ->
      match Service.Protocol.parse_response line with
      | Ok (Service.Protocol.Ok_response p) ->
        Hashtbl.replace by_id p.Service.Protocol.ok_id (at, Ok p)
      | Ok (Service.Protocol.Error_response { id; code; message }) ->
        Hashtbl.replace by_id id
          (at, Error (Service.Protocol.error_code_name code ^ ": " ^ message))
      | Ok (Service.Protocol.Progress_response _) -> ()
      | Error e -> Hashtbl.replace by_id "" (at, Error ("unparsable response: " ^ e)))
    replies;
  Array.to_list
    (Array.mapi
       (fun i { due; reference; _ } ->
         let id = Printf.sprintf "b%04d" i in
         let base =
           {
             name = id;
             latency = serve_timeout;
             ok = false;
             bad_output = false;
             swaps = 0;
             naive = naive_swaps device reference;
             budget = serve_timeout;
             why = "unanswered";
           }
         in
         let lag = if Float.is_nan sent.(i) then 0. else sent.(i) -. due in
         match Hashtbl.find_opt by_id id with
         | None ->
           { r_op = base; r_time_s = 0.; r_cache_hit = false; r_coalesced = false; r_lag = lag }
         | Some (at, Error why) ->
           {
             r_op = { base with latency = at -. due; why };
             r_time_s = 0.;
             r_cache_hit = false;
             r_coalesced = false;
             r_lag = lag;
           }
         | Some (at, Ok p) ->
           let checked =
             check_output ~device ~original:reference
               ~initial:p.Service.Protocol.ok_initial
               ~final:p.ok_final ~swaps:p.ok_swaps p.ok_qasm
           in
           {
             r_op =
               {
                 base with
                 latency = at -. due;
                 ok = Result.is_ok checked;
                 bad_output = Result.is_error checked;
                 swaps = p.ok_swaps;
                 why = (match checked with Ok () -> "" | Error e -> "output check: " ^ e);
               };
             r_time_s = p.ok_time;
             r_cache_hit = p.ok_cache_hit;
             r_coalesced = p.ok_coalesced;
             r_lag = lag;
           })
       schedule)

let serve_setup ~satmap ~work ~trace ~seed ~span =
  let times = ref [] in
  let result = ref None in
  for _ = 1 to 5 do
    Option.iter (fun (_, s) -> stop_server s) !result;
    let t0 = now () in
    let schedule = serve_inputs ~seed ~span in
    let s = start_server ~satmap ~work ~trace in
    times := (now () -. t0) :: !times;
    result := Some (schedule, s)
  done;
  match !result with
  | Some (schedule, s) -> (schedule, s, median !times)
  | None -> assert false

(* The schedule spans this share of [--seconds]; the rest is left for the
   slowest replies and the output check. *)
let schedule_share = 0.85

let run_serve ~satmap ~work ~trace ~seed ~seconds =
  let span = schedule_share *. seconds in
  let schedule, server, setup_s =
    serve_setup ~satmap ~work ~trace ~seed ~span
  in
  let connections = max 1 (min 2 (Domain.recommended_domain_count ())) in
  (* A server that dies mid-run must show as failed requests, not kill
     the generator on its next write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sent, replies =
    match drive ~sock:server.sock ~connections schedule with
    | r -> r
    | exception e ->
      stop_server server;
      raise e
  in
  let rss = peak_rss_mb (string_of_int server.pid) in
  (match Unix.waitpid [ Unix.WNOHANG ] server.pid with
  | 0, _ -> ()
  | _ -> print_endline "satmap serve exited during the run; see its log"
  | exception Unix.Unix_error _ -> ());
  stop_server server;
  let makespan = List.fold_left (fun acc (at, _) -> Float.max acc at) 0. replies in
  let t_check = now () in
  let replies = serve_ops schedule sent replies in
  let check_s = now () -. t_check in
  let ops = List.map (fun r -> r.r_op) replies in
  let attempted, failed, bad = tally [ ops ] in
  let errors = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if not o.ok then
        Hashtbl.replace errors o.why
          (1 + Option.value ~default:0 (Hashtbl.find_opt errors o.why)))
    ops;
  Hashtbl.iter (fun why k -> Printf.printf "failed x%d: %s\n" k why) errors;
  Printf.printf "requests=%d connections=%d cache_hits=%d coalesced=%d\n"
    attempted connections
    (List.length (List.filter (fun r -> r.r_cache_hit) replies))
    (List.length (List.filter (fun r -> r.r_coalesced) replies));
  let correct = not bad in
  if not trace then
    {
      correct;
      attempted;
      failed;
      metrics = end_to_end ~setup_s ~rss [ (makespan, ops) ];
    }
  else begin
    let mj = read_json server.metrics_file in
    let c k = json_num k mj in
    let rate hits misses = ratio (c hits) (c hits +. c misses) in
    let spans =
      List.filter_map
        (fun e ->
          match
            ( Option.bind (Obs.Json.member "ph" e) Obs.Json.string_value,
              Option.bind (Obs.Json.member "name" e) Obs.Json.string_value )
          with
          | Some "X", Some name ->
            Some (name, int_of_float (json_num "tid" e), json_num "ts" e, json_num "dur" e)
          | _ -> None)
        (Obs.Json.to_list
           (Option.value ~default:Obs.Json.Null
              (Obs.Json.member "traceEvents" (read_json server.trace_file))))
    in
    let self, top = self_times spans in
    let span_total name =
      fsum
        (List.filter_map
           (fun (n, _, _, d) -> if n = name then Some (d /. 1e6) else None)
           spans)
    in
    let solve_s = span_total "sat.solve" in
    let served = List.filter (fun r -> r.r_op.ok) replies in
    let time_one f =
      let t0 = now () in
      Array.iter (fun x -> ignore (f x.reference)) schedule;
      now () -. t0
    in
    let t_parse = now () in
    Array.iter
      (fun x ->
        match Service.Protocol.parse_request x.line with
        | Ok r -> ignore (Quantum.Qasm.of_string r.Service.Protocol.qasm)
        | Error _ -> ())
      schedule;
    let parse_s = now () -. t_parse in
    {
      correct;
      attempted;
      failed;
      metrics =
        [
          m "sat.solve_s" "s" solve_s;
          m "sat.props_per_s" "1/s" (ratio (c "sat.propagations") solve_s);
          m "sat.propagations" "count" (c "sat.propagations");
          m "sat.conflicts" "count" (c "sat.conflicts");
          m "sat.decisions" "count" 0.;
          m "maxsat.iterations" "count" (c "maxsat.iterations");
          m "maxsat.solves" "count" (c "maxsat.solves");
          m "maxsat.optima_proved_frac" "ratio"
            (ratio (c "maxsat.optima_proved") (c "maxsat.solves"));
          m "satmap.router.self_s" "s" (span_total "router.block" -. solve_s);
          m "satmap.router.blocks" "count" (c "router.blocks");
          m "satmap.router.escalations" "count" (c "router.escalations");
          m "satmap.router.backtracks" "count" (c "router.backtracks");
          m "satmap.router.solver_calls" "count" (c "maxsat.solves");
          m "satmap.router.solvers_created" "count" (c "solver.created");
          m "satmap.encoding.prepare_s" "s" 0.;
          m "satmap.encoding.clauses" "count" 0.;
          m "satmap.encoding.reused_clauses" "count" (c "encode.reused_clauses");
          m "quantum.parse_s" "s" parse_s;
          m "quantum.print_s" "s" (time_one Quantum.Qasm.to_string);
          m "satmap.verifier.check_s" "s" check_s;
          m "service.canon_s" "s" (time_one Service.Canon.canonical);
          m "service.cache.hit_rate" "ratio"
            (rate "service.cache.hits" "service.cache.misses");
          m "service.block_cache.hit_rate" "ratio"
            (rate "service.block_cache.hits" "service.block_cache.misses");
          m "service.warm.hit_rate" "ratio"
            (rate "service.warm_hits" "service.warm_misses");
          m "service.wait_s" "s"
            (median (List.map (fun r -> r.r_op.latency -. r.r_time_s) served));
          m "serving.coalesce_rate" "ratio"
            (ratio
               (fi (List.length (List.filter (fun r -> r.r_coalesced) replies)))
               (fi attempted));
          m "serving.admission.rejected" "count"
            (c "server.admission.rejected_expired"
            +. c "server.admission.rejected_predicted_late"
            +. c "server.admission.rejected_queue_full");
          m "loadgen.lag_s" "s" (quantile 0.9 (List.map (fun r -> r.r_lag) replies));
          m "obs.attributed_frac" "ratio" (ratio top (fsum (List.map (fun r -> r.r_time_s) replies)));
        ]
        @ latency_metrics ops
        @ span_metrics self
        @ [ m "obs.trace_overhead_frac" "ratio" 0. ];
    }
  end

(* ---- entry point --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let satmap = ref "" and work = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile-hard | compile-long | anytime-budget | serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--satmap", Arg.Set_string satmap, "EXE the satmap executable (serve-mixed)");
      ("--work", Arg.Set_string work, "DIR working directory for the server's socket and files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let compile w =
    if traced then run_compile_traced w ~seed:!seed ~seconds:!seconds
    else run_compile w ~seed:!seed ~seconds:!seconds
  in
  let result =
    match !workload with
    | "compile-hard" -> compile compile_hard
    | "compile-long" -> compile compile_long
    | "anytime-budget" -> compile anytime_budget
    | "serve-mixed" ->
      run_serve ~satmap:!satmap ~work:!work ~trace:traced ~seed:!seed
        ~seconds:!seconds
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  print_result result
