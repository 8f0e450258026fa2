(* paper-sweep: the compile/simulate toolchain, regenerating Table 2's
   Cinnamon-4 column from a cold result cache (compile dominates). *)

open Cinnamon_compiler
open Cinnamon_ir
open Cinnamon_workloads
module CC = Compile_config
module Sim = Cinnamon_sim.Simulator
module Isa = Cinnamon_isa.Isa
module Cache = Cinnamon_exec.Result_cache
module Pool = Cinnamon_exec.Pool
module H = Harness

let isa_instrs (m : Isa.machine_program) =
  Array.fold_left (fun a p -> a + Array.length p.Isa.instrs) 0 m.Isa.programs

let limb_instrs (l : Limb_ir.t) =
  Array.fold_left (fun a p -> a + List.length p.Limb_ir.instrs) 0 l.Limb_ir.chips

(* The simulator's accounting identity: every chip's busy + stalls +
   idle cycles equal the machine total, with no part negative. *)
let accounting_ok (r : Sim.result) =
  Array.for_all
    (fun (s : Sim.chip_stats) ->
      let parts =
        [ s.Sim.cs_busy; s.cs_stall_operand; s.cs_stall_fu; s.cs_stall_hbm; s.cs_stall_network;
          s.cs_idle ]
      in
      List.for_all (fun x -> x >= 0) parts
      && List.fold_left ( + ) 0 parts = s.Sim.cs_total
      && s.Sim.cs_total = r.Sim.cycles)
    r.Sim.per_chip_stats

(* Busy / stall / idle shares of all simulated chip-cycles. *)
let set_stall_fractions (results : Sim.result list) =
  let sum f =
    List.fold_left
      (fun a (r : Sim.result) -> Array.fold_left (fun a s -> a + f s) a r.Sim.per_chip_stats)
      0 results
  in
  let total = Float.of_int (max 1 (sum (fun s -> s.Sim.cs_total))) in
  let frac name f = H.set name (Float.of_int (sum f) /. total) in
  frac "sim.busy_frac" (fun s -> s.Sim.cs_busy);
  frac "sim.stall_operand_frac" (fun s -> s.Sim.cs_stall_operand);
  frac "sim.stall_fu_frac" (fun s -> s.Sim.cs_stall_fu);
  frac "sim.stall_hbm_frac" (fun s -> s.Sim.cs_stall_hbm);
  frac "sim.stall_network_frac" (fun s -> s.Sim.cs_stall_network);
  frac "sim.idle_frac" (fun s -> s.Sim.cs_idle)

(* --- compile, decomposed ------------------------------------------------- *)

let kernel_program ~(config : CC.t) kernel =
  match (config.CC.progpar, kernel) with
  | true, Specs.K_bootstrap shape -> Kernels.bootstrap_program ~shape ~progpar:true ()
  | _ -> Specs.kernel_program kernel

(* Runner.compile_kernel, pass by pass through the public entry points
   of each stage, so each pass is timed on its own: the same work as
   Pipeline.compile.  Lower_isa.translate allocates registers inside,
   so its span covers regalloc and ISA emission together
   ([regalloc_ms] splits them). *)
let compile_decomposed ~config sys kernel : Pipeline.result =
  let cfg = Runner.effective_config config sys in
  let ct = H.span "workloads" "program" (fun () -> kernel_program ~config kernel) in
  let poly = H.span "compiler" "lower_poly" (fun () -> Lower_poly.lower cfg ct) in
  let limb, ks_report = H.span "compiler" "lower_limb" (fun () -> Lower_limb.lower cfg poly) in
  let machine, regalloc =
    H.span "compiler" "translate" (fun () ->
        Lower_isa.translate ~num_regs:(CC.registers cfg) ~n:(CC.n cfg) ~limb_bytes:(CC.limb_bytes cfg) limb)
  in
  { Pipeline.cfg; ct; poly; limb; ks_report; machine; regalloc; comm = Limb_ir.comm_stats limb }

(* Milliseconds Regalloc.allocate takes over every chip of a compiled
   kernel: the register-allocation share of its translate time. *)
let regalloc_ms (r : Pipeline.result) =
  let num_regs = CC.registers r.Pipeline.cfg in
  let t0 = H.now () in
  Array.iter
    (fun cp -> ignore (Sys.opaque_identity (Regalloc.allocate ~num_regs cp)))
    r.Pipeline.limb.Limb_ir.chips;
  (H.now () -. t0) *. 1000.0

(* Sizes and counts of one compile, which must repeat exactly. *)
let compile_counts (r : Pipeline.result) =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 r.Pipeline.regalloc in
  [ ("ir.ct_nodes", Ct_ir.size r.Pipeline.ct);
    ("ir.poly_nodes", Poly_ir.size r.Pipeline.poly);
    ("ir.limb_instrs", limb_instrs r.Pipeline.limb);
    ("ir.isa_instrs", isa_instrs r.Pipeline.machine);
    ("regalloc.spills", sum (fun s -> s.Regalloc.spills));
    ("regalloc.reloads", sum (fun s -> s.Regalloc.reloads));
    ("comm.bytes_moved", r.Pipeline.comm.Limb_ir.bytes_moved);
    ( "ks_pass.batched_sites",
      r.Pipeline.ks_report.Keyswitch_pass.pattern_a_sites
      + r.Pipeline.ks_report.Keyswitch_pass.pattern_b_sites ) ]

let add_counts acc counts =
  List.map2 (fun (n, a) (n', b) -> assert (n = n'); (n, a + b)) acc counts

(* Verify a compile; any violation makes it a failure. *)
let check_verified ~fail name (r : Pipeline.result) =
  match H.span "compiler" "verify" (fun () -> Pipeline.verify r) with
  | [] -> ()
  | v :: _ as vs ->
    fail
      (Printf.sprintf "%s: %d verifier violation(s), first: %s" name (List.length vs)
         (Format.asprintf "%a" Verify.pp_violation v))

(* --- paper-sweep ----------------------------------------------------------- *)

(* Table 2's Cinnamon-4 column: every paper benchmark on Cinnamon-4,
   8 distinct kernels.  The whole table (16 pairs, 29 kernels) takes
   about 30 CPU-seconds, one sweep per run; a column takes about 8, so
   a run holds several sweeps and reports their median. *)
let table2 () = List.map (fun b -> (Runner.cinnamon_4, b)) Specs.all

(* Scaled down for the self-test: two small kernels on a 4-chip and a
   widened 8-chip system. *)
let table2_small () =
  let b =
    {
      Specs.bench_name = "perfbench-mini";
      segments = [ Specs.seg Specs.K_relu; Specs.seg ~instances:2 (Specs.K_matvec 4) ];
      paper_times = [];
    }
  in
  [ (Runner.cinnamon_4, b); (Runner.cinnamon_8, b) ]

(* The distinct compile+simulate jobs behind a sweep, deduplicated on
   the runner's cache key: single-instance segments run widened over
   the whole machine with program parallelism (Runner's placement). *)
let targets pairs =
  let config = CC.paper () in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ((sys : Runner.system), (b : Specs.benchmark)) ->
      List.filter_map
        (fun (s : Specs.segment) ->
          let sys, config =
            if s.Specs.instances = 1 && sys.Runner.groups > 1 then
              (Runner.widened sys, { config with CC.progpar = true })
            else (sys, config)
          in
          let key = Cinnamon_exec.Cache_key.to_string (Runner.cache_key ~config sys s.Specs.kernel) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (sys, config, s.Specs.kernel)
          end)
        b.Specs.segments)
    pairs

let target_name ((sys : Runner.system), _, kernel) =
  Specs.kernel_name kernel ^ "@" ^ sys.Runner.sys_name

(* Simulated cycles of every distinct kernel, keyed by name@system. *)
let cycles_of (sw : Runner.sweep) =
  List.map
    (fun (k : Runner.kernel_time) -> (k.Runner.kt_kernel ^ "@" ^ k.Runner.kt_system, k.Runner.kt_result.Sim.cycles))
    sw.Runner.sw_kernels
  |> List.sort compare

let table2_ms (results : Runner.bench_result list) =
  1000.0 *. Cinnamon_util.Stats.geomean (List.map (fun r -> r.Runner.br_seconds) results)

type sweep_state = {
  pairs : (Runner.system * Specs.benchmark) list;
  targets : (Runner.system * CC.t * Specs.kernel) list;
  mutable reference_cycles : (string * int) list option;  (** from the first sweep *)
}

(* Set-up: the sweep's pairs and distinct jobs, one front-end build of
   every distinct kernel program (which fails early on a kernel that no
   longer builds), and a warm-up compile + simulate of the smallest
   kernel outside the cache, so the timed sweeps start on a grown heap. *)
let sweep_setup make_pairs =
  H.span "harness" "setup" @@ fun () ->
  let pairs = make_pairs () in
  let targets = targets pairs in
  List.iter
    (fun (_, config, kernel) ->
      ignore (H.span "workloads" "program" (fun () -> kernel_program ~config kernel) : Ct_ir.t))
    targets;
  let (_ : Sim.result) =
    H.span "workloads" "warm_up" (fun () ->
        Runner.simulate_kernel ~use_cache:false Runner.cinnamon_4 Specs.K_relu)
  in
  { pairs; targets; reference_cycles = None }

let check_cycles st log what cyc =
  match st.reference_cycles with
  | None -> st.reference_cycles <- Some cyc
  | Some ref_cyc -> if ref_cyc <> cyc then H.fail log (what ^ ": simulated cycles differ from the first sweep's")

let check_misses st log (stats : Cache.stats) =
  let distinct = List.length st.targets in
  if stats.Cache.misses <> distinct then
    H.fail log (Printf.sprintf "cache misses %d <> %d distinct kernels" stats.Cache.misses distinct)

(* One cold sweep as a user runs it: Runner.run_sweep over the pool
   with every compile verified, from an empty in-memory cache. *)
let cold_sweep st ~jobs log =
  Cache.clear_memory ();
  Cache.reset_stats ();
  let t0 = H.now () in
  let sw = try Ok (Runner.run_sweep ~jobs ~verify:true st.pairs) with e -> Error e in
  let ms = (H.now () -. t0) *. 1000.0 in
  (match sw with
  | Error e -> H.fail log ("sweep raised " ^ Printexc.to_string e)
  | Ok sw ->
    check_misses st log (Cache.stats ());
    List.iter
      (fun (k : Runner.kernel_time) ->
        if not (accounting_ok k.Runner.kt_result) then
          H.fail log (k.Runner.kt_kernel ^ "@" ^ k.Runner.kt_system ^ ": simulator accounting identity violated"))
      sw.Runner.sw_kernels;
    check_cycles st log "sweep" (cycles_of sw));
  (ms, Result.to_option sw)

(* One traced sweep: the same distinct jobs over the same pool, each
   compiled pass by pass, verified and simulated through the result
   cache; then the benchmarks are composed from the warm cache. *)
let traced_sweep st ~jobs log =
  Cache.clear_memory ();
  Cache.reset_stats ();
  let t0 = H.now () in
  let pool = Pool.create ~jobs () in
  let jobs_out =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.map pool
          (fun ((sys, config, kernel) as t) ->
            let name = target_name t in
            H.span "harness" "target" @@ fun () ->
            let counts = ref [] and instrs = ref 0 in
            let sim =
              H.span "exec" "find_or_compute" (fun () ->
                  Cache.find_or_compute ~key:(Runner.cache_key ~config sys kernel) (fun () ->
                      let r = compile_decomposed ~config sys kernel in
                      counts := compile_counts r;
                      instrs := isa_instrs r.Pipeline.machine;
                      check_verified ~fail:(H.fail log) name r;
                      H.span "sim" "run" (fun () -> Sim.run sys.Runner.group_sim r.Pipeline.machine)))
            in
            if not (accounting_ok sim) then H.fail log (name ^ ": simulator accounting identity violated");
            (name, sim, !counts, !instrs))
          st.targets)
  in
  let results =
    H.span "workloads" "compose" (fun () ->
        List.map (fun (sys, b) -> Runner.run_benchmark sys b) st.pairs)
  in
  let ms = (H.now () -. t0) *. 1000.0 in
  let stats = Cache.stats () in
  check_misses st log stats;
  check_cycles st log "traced sweep"
    (List.sort compare (List.map (fun (n, (s : Sim.result), _, _) -> (n, s.Sim.cycles)) jobs_out));
  (ms, jobs_out, results, stats)

(* After the timed sweeps of a traced run: every distinct kernel
   compiled once more through Runner.compile_kernel on the same pool,
   its sizes checked against the pass-by-pass compile, and its register
   allocation timed on its own.  Returns (name, compile ms, regalloc
   ms) per kernel. *)
let compile_check st ~jobs jobs_out log =
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.map pool
        (fun ((sys, config, kernel) as t) ->
          let name = target_name t in
          let t0 = H.now () in
          let whole = Runner.compile_kernel ~config sys kernel in
          let ms = (H.now () -. t0) *. 1000.0 in
          (match List.find_opt (fun (n, _, _, _) -> n = name) jobs_out with
          | Some (_, _, counts, _) when counts = compile_counts whole -> ()
          | _ -> H.fail log (name ^ ": pass-by-pass compile differs from Runner.compile_kernel"));
          (name, ms, regalloc_ms whole))
        st.targets)

let sum_counts = function
  | [] -> []
  | c :: rest -> List.fold_left add_counts c rest

let count_string counts = String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counts)

(* Per-layer values of a traced sweep, and the layer-sum check of the
   passes against Runner.compile_kernel's own total. *)
let traced_metrics ~jobs ~traced jobs_out results (stats : Cache.stats) checked log =
  let n = Float.of_int (max 1 traced) in
  let counts = sum_counts (List.map (fun (_, _, c, _) -> c) jobs_out) in
  List.iter (fun (name, v) -> H.seti name v) counts;
  let sims = List.map (fun (_, s, _, _) -> s) jobs_out in
  set_stall_fractions sims;
  let instrs = List.fold_left (fun a (_, _, _, k) -> a + k) 0 jobs_out in
  H.seti "sim.instrs" instrs;
  H.seti "sim.cycles" (List.fold_left (fun a (s : Sim.result) -> a + s.Sim.cycles) 0 sims);
  H.set "sim.minstr_per_s"
    (Float.of_int instrs /. (H.span_total ~phase:"op" "sim" "run" /. n *. 1000.0));
  H.set "sim.table2_ms" (table2_ms results);
  H.seti "cache.hits" stats.Cache.hits;
  H.seti "cache.misses" stats.Cache.misses;
  H.set "cache.hit_ratio"
    (Float.of_int stats.Cache.hits /. Float.of_int (max 1 (stats.Cache.hits + stats.Cache.misses)));
  H.seti "pool.jobs" jobs;
  let total f = List.fold_left (fun a x -> a +. f x) 0.0 checked in
  let whole = total (fun (_, ms, _) -> ms) in
  H.set "compiler.compile_kernel_ms" whole;
  H.set "compiler.regalloc_ms" (total (fun (_, _, ms) -> ms));
  (* layer-sum check: the passes against Runner.compile_kernel *)
  let phases =
    List.fold_left
      (fun a (l, s) -> a +. H.span_total ~phase:"op" l s)
      0.0
      [ ("workloads", "program"); ("compiler", "lower_poly"); ("compiler", "lower_limb");
        ("compiler", "translate") ]
    /. n
  in
  H.note log
    (Printf.sprintf
       "layer-sum: program + lower_poly + lower_limb + translate = %.1f ms per traced sweep vs \
        Runner.compile_kernel total %.1f ms (ratio %.3f)"
       phases whole (phases /. whole));
  let slowest = List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) checked in
  H.note log
    ("slowest compiles (Runner.compile_kernel ms / of which regalloc): "
    ^ String.concat ", "
        (List.filteri (fun i _ -> i < 6) slowest
        |> List.map (fun (name, ms, ra) -> Printf.sprintf "%s %.0f/%.0f" name ms ra)));
  H.note log (Printf.sprintf "exact: cache misses=%d hits=%d; %s" stats.Cache.misses stats.Cache.hits
              (count_string counts))

(* paper-sweep: set up (median of several), then cold sweeps for
   [seconds].  A traced run alternates untraced sweeps (the reference
   for cycles and overhead) and traced sweeps. *)
let run_paper make_pairs ~seconds ~trace ~min_ops ~jobs : H.result =
  let log = H.new_log () in
  H.phase := "setup";
  let setup_s, st = H.traced trace (fun () -> H.repeat_setup ~trace (fun () -> sweep_setup make_pairs)) in
  H.phase := "op";
  let last = ref None and last_traced = ref None in
  let ops =
    H.closed_loop ~warm_up:1 ~clients:1 ~seconds ~min_ops (fun i ->
        if trace && i mod 2 = 1 then begin
          let ms, jobs_out, results, stats = H.traced true (fun () -> traced_sweep st ~jobs log) in
          last_traced := Some (jobs_out, results, stats);
          (true, ms)
        end
        else begin
          let ms, sw = cold_sweep st ~jobs log in
          if sw <> None then last := sw;
          (false, ms)
        end)
  in
  let timed tr = List.filter_map (fun (warm, (t, ms)) -> if warm || t <> tr then None else Some ms) ops in
  (match !last_traced with
  | Some (jobs_out, results, stats) ->
    let checked = compile_check st ~jobs jobs_out log in
    traced_metrics ~jobs ~traced:(List.length (timed true)) jobs_out results stats checked log
  | None -> ());
  (match !last with
  | Some sw ->
    H.note log
      (Printf.sprintf "table2 geomean %.4f simulated ms over %d pairs, %d distinct kernels (modelled time)"
         (table2_ms sw.Runner.sw_results) (List.length st.pairs) (List.length st.targets))
  | None -> ());
  let cycles =
    String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c)
                         (Option.value ~default:[] st.reference_cycles))
  in
  let counts = Printf.sprintf "distinct=%d cycles=%s" (List.length st.targets) cycles in
  let after = H.setups_after ~trace setup_s (fun () -> sweep_setup make_pairs) in
  {
    H.setup_s = setup_s @ after;
    op_ms = timed false;
    traced_ms = timed true;
    attempted = List.length ops;
    failed = Atomic.get log.H.failures;
    counts;
    fingerprint = cycles;
    notes = List.rev log.H.notes;
  }
