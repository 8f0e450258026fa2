(* perfbench: the repository's benchmark — encrypted inference end to
   end and the compile/simulate toolchain, with per-layer attribution.

   Usage, from the repository root (run.sh builds first):
     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --selftest
   W = all runs every workload in turn (peak_rss_mb is then the process
   peak so far).

   Workloads (BENCHMARK.json says why each was chosen):
     infer-bert    encrypt -> Functional.run -> decrypt of a BERT encoder
                   layer on a 39-limb chain at N=2^9 (deep-chain
                   keyswitches, relinearisation), two clients
     paper-sweep   cold Runner.run_sweep over Specs.all on Cinnamon-4 with
                   two jobs (Table 2's Cinnamon-4 column; compile dominates)
   Each keeps both cores of a two-core host busy: the cores' speeds
   drift apart by up to 2x for minutes, so one thread's time depends on
   where it was scheduled while the median over both holds steadier.
   Each client's first operation is an untimed warm-up (its outputs are
   still checked): the first inference or sweep of a process runs while
   the heap grows and is the slowest.

   With --trace 0 the last line reports the end-to-end metrics:
     setup_s      median of the set-ups (everything before the first
                  operation): at least three before the operations and
                  as many again after them, so that they sample the
                  host's speed on both sides of the run
     op_p50_ms    median wall time of one timed operation — an
                  inference or a cold sweep — under that load; the
                  samples and their count are printed above
     peak_rss_mb  peak resident memory of the process
   With --trace 1 the run sets up once with spans around its calls into
   each lib/ layer, runs one client alternating untraced and traced
   operations, probes the RNS and keyswitch kernels, and reports the
   per-layer metrics BENCHMARK.json declares; a layer that did no work
   reads 0.  After its timed sweeps, a traced paper-sweep compiles every
   kernel once more through Runner.compile_kernel for the layer-sum
   check and times register allocation on its own; neither is part of
   trace.overhead_pct.  The program's Telemetry sink stays off
   throughout.

   Every operation is checked (decrypt error, predicted collective
   counts, verifier, simulator accounting, cache misses, repeatable
   cycles); a failed check is printed, counted in "failed", and makes
   the exit code 1. *)

module H = Harness
module Json = Cinnamon_util.Json

type run =
  seed:int -> seconds:float -> trace:bool -> min_ops:int -> jobs:int -> small:bool -> H.result

let workloads : (string * run) list =
  [ ( "infer-bert",
      fun ~seed ~seconds ~trace ~min_ops ~jobs:_ ~small ->
        Infer.run (if small then Infer.bert_small else Infer.bert) ~seed ~seconds ~trace ~min_ops );
    (* the compile/simulate workloads are the paper's fixed kernels: the
       seed selects nothing *)
    ( "paper-sweep",
      fun ~seed:_ ~seconds ~trace ~min_ops ~jobs ~small ->
        Sweeps.run_paper (if small then Sweeps.table2_small else Sweeps.table2) ~seconds ~trace ~min_ops
          ~jobs ) ]

(* Metric names and units, as BENCHMARK.json declares them. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let fail () = failwith ("BENCHMARK.json: cannot read " ^ section) in
  match Json.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    let field k m = Option.bind (Json.member k m) Json.to_str in
    (match Option.bind (Json.member section j) Json.to_list with None -> fail () | Some l -> l)
    |> List.map (fun m ->
           match (field "name" m, field "unit" m) with Some n, Some u -> (n, u) | _ -> fail ())

(* Per-layer values of a traced run: self time of each call per set-up
   and per traced operation, the computed isa time, tracing overhead
   and host drift. *)
let per_layer_values (r : H.result) ~spin_before ~spin_after =
  let ops = Float.of_int (max 1 (List.length r.H.traced_ms)) in
  let add (layer, name) per ms =
    if layer <> "harness" && layer <> "check" then begin
      let key = Printf.sprintf "%s.%s_ms" layer name in
      H.set key ((ms /. per) +. Option.value ~default:0.0 (Hashtbl.find_opt H.metrics key))
    end
  in
  List.iter (fun (k, ms) -> add k 1.0 ms) (H.self_by (fun s -> (s.H.layer, s.H.name)) "setup");
  List.iter (fun (k, ms) -> add k ops ms) (H.self_by (fun s -> (s.H.layer, s.H.name)) "op");
  (match (Hashtbl.find_opt H.metrics "compiler.translate_ms", Hashtbl.find_opt H.metrics "compiler.regalloc_ms") with
  | Some t, Some ra -> H.set "compiler.isa_ms" (t -. ra)
  | _ -> ());
  H.set "trace.overhead_pct" (100.0 *. ((H.median r.H.traced_ms /. H.median r.H.op_ms) -. 1.0));
  H.set "host.spin_ms" spin_before;
  H.set "host.spin_after_ms" spin_after

(* Self time per layer, per set-up and per traced operation, with the
   part no layer span covers on its own line. *)
let print_layer_sums (r : H.result) =
  let show phase per wall =
    let layers = H.self_by (fun s -> s.H.layer) phase in
    if layers <> [] then begin
      Printf.printf "layer self time, %s phase, per %s:\n" phase
        (if phase = "setup" then "set-up" else Printf.sprintf "traced operation (%.0f)" per);
      let sum = ref 0.0 in
      List.iter
        (fun (l, ms) ->
          let ms = ms /. per in
          if l <> "check" then begin
            sum := !sum +. ms;
            Printf.printf "  %-10s %12.3f ms\n" (if l = "harness" then "untracked" else l) ms
          end)
        layers;
      Printf.printf "  %-10s %12.3f ms  (operation wall %.3f ms)\n" "sum" !sum wall;
      List.iter
        (fun (l, ms) ->
          if l = "check" then
            Printf.printf "  cross-checks (reference work, not in the sum): %.3f ms; sum + cross-checks %.3f ms\n"
              (ms /. per) (!sum +. (ms /. per)))
        layers
    end
  in
  show "setup" 1.0 (List.hd r.H.setup_s *. 1000.0);
  let n = List.length r.H.traced_ms in
  show "op" (Float.of_int (max 1 n)) (List.fold_left ( +. ) 0.0 r.H.traced_ms /. Float.of_int (max 1 n))

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let run_workload name =
  match List.assoc_opt name workloads with
  | Some run -> run
  | None ->
    Printf.eprintf "unknown workload %s (known: %s)\n" name (String.concat ", " (List.map fst workloads));
    exit 2

(* Run one workload and print its result; true when every check held. *)
let bench ~workload ~seed ~seconds ~trace =
  let run = run_workload workload in
  Hashtbl.reset H.metrics;
  H.reset_spans ();
  let section = if trace then "per_layer" else "end_to_end" in
  let wanted = declared section in
  Printf.printf "perfbench %s: seed=%d seconds=%g trace=%b\n" workload seed seconds trace;
  Printf.printf "provenance: git=%s profile=%s ocaml=%s nproc=%d jobs=%d seed=%d\n%!" (H.git_rev ())
    Build_info.profile Sys.ocaml_version
    (Domain.recommended_domain_count ())
    H.domains seed;
  let spin_before = H.spin_ms () in
  let r = run ~seed ~seconds ~trace ~min_ops:(if trace then 2 else 1) ~jobs:H.domains ~small:false in
  let spin_after = H.spin_ms () in
  List.iter print_endline r.H.notes;
  Printf.printf "host.spin_ms before %.2f after %.2f\n" spin_before spin_after;
  Printf.printf "exact counts: %s\n" r.H.counts;
  Printf.printf "operations: %d attempted, %d failed; %d untraced, %d traced timed\n" r.H.attempted
    r.H.failed (List.length r.H.op_ms) (List.length r.H.traced_ms);
  let show what xs =
    if xs <> [] && List.length xs <= 400 then
      Printf.printf "%s ms: %s\n" what (String.concat " " (List.map (Printf.sprintf "%.1f") xs))
  in
  show "set-up" (List.map (fun s -> s *. 1000.0) r.H.setup_s);
  show "untraced operation" r.H.op_ms;
  show "traced operation" r.H.traced_ms;
  if trace then begin
    per_layer_values r ~spin_before ~spin_after;
    print_layer_sums r
  end
  else begin
    H.set "setup_s" (H.median r.H.setup_s);
    H.set "op_p50_ms" (H.median r.H.op_ms);
    H.set "peak_rss_mb" (H.peak_rss_mb ())
  end;
  let undeclared =
    Hashtbl.fold (fun k _ acc -> if List.mem_assoc k wanted then acc else k :: acc) H.metrics []
  in
  if undeclared <> [] then begin
    Printf.eprintf "metrics not declared in BENCHMARK.json %s: %s\n" section
      (String.concat ", " (List.sort compare undeclared));
    exit 3
  end;
  let metrics =
    List.map
      (fun (name, unit) -> (name, unit, Option.value ~default:0.0 (Hashtbl.find_opt H.metrics name)))
      wanted
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %16.6f %s\n" name v unit) metrics;
  let correct = r.H.failed = 0 && finite && r.H.attempted > 0 in
  print_endline
    (result_line ~correct ~attempted:r.H.attempted ~failed:r.H.failed
       (List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics));
  correct

(* Scaled-down versions of every workload: twice with one seed
   (outputs bit-identical, counts equal; the sweep once with one job
   and once with two), once traced with another seed (same counts,
   every gate passing); and every declared per-layer metric is
   produced by some workload. *)
let selftest () =
  let ok = ref true in
  let check what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  let produced = Hashtbl.create 64 in
  let per_layer = declared "per_layer" in
  List.iter
    (fun (name, (run : run)) ->
      let go ~seed ~trace ~jobs =
        Hashtbl.reset H.metrics;
        H.reset_spans ();
        let r = run ~seed ~seconds:0.0 ~trace ~min_ops:2 ~jobs ~small:true in
        List.iter (fun n -> if String.length n > 4 && String.sub n 0 4 = "FAIL" then print_endline n) r.H.notes;
        r
      in
      let a = go ~seed:1 ~trace:false ~jobs:H.domains in
      let b = go ~seed:1 ~trace:false ~jobs:1 in
      let c = go ~seed:2 ~trace:true ~jobs:H.domains in
      per_layer_values c ~spin_before:1.0 ~spin_after:1.0;
      Hashtbl.iter (fun k _ -> Hashtbl.replace produced k ()) H.metrics;
      let undeclared =
        Hashtbl.fold (fun k _ acc -> if List.mem_assoc k per_layer then acc else k :: acc) H.metrics []
      in
      check (name ^ ": every per-layer metric is declared " ^ String.concat ", " undeclared) (undeclared = []);
      check (name ^ ": every gate passes") (a.H.failed = 0 && b.H.failed = 0 && c.H.failed = 0);
      check (name ^ ": same seed, bit-identical outputs") (a.H.fingerprint = b.H.fingerprint);
      check (name ^ ": same seed, equal counts") (a.H.counts = b.H.counts && a.H.counts <> "");
      check (name ^ ": other seed, equal counts") (a.H.counts = c.H.counts))
    workloads;
  let missing = List.filter (fun (n, _) -> not (Hashtbl.mem produced n)) per_layer in
  check
    ("every declared per-layer metric is produced"
    ^ if missing = [] then "" else ": missing " ^ String.concat ", " (List.map fst missing))
    (missing = []);
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  one of infer-bert, paper-sweep");
      ("--seed", Arg.Set_int seed, "N  workload seed (keys, weights, inputs)");
      ("--seconds", Arg.Set_float seconds, "S  how long to run operations");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--selftest", Arg.Set self, " run the scaled-down determinism self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 | --selftest";
  if !self then selftest ()
  else if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2)
  else begin
    let names = if !workload = "all" then List.map fst workloads else [ !workload ] in
    let ok =
      List.fold_left
        (fun ok workload ->
          bench ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) && ok)
        true names
    in
    exit (if ok then 0 else 1)
  end
