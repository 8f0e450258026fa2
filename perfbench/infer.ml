(* infer-bert: a closed loop running encrypted inference end
   to end.  Keys and weight plaintexts are built in
   set-up; each operation encrypts a fresh seeded input, runs the
   lowered graph through the functional emulator (every keyswitch goes
   through the parallel algorithm the compiler's pass chose), decrypts,
   and is checked against the cleartext reference evaluator. *)

open Cinnamon_ckks
open Cinnamon_compiler
open Cinnamon_nn
open Cinnamon_ir
module F = Cinnamon_emulator.Functional
module KA = Keyswitch_alg
module Rng = Cinnamon_util.Rng
module Stats = Cinnamon_util.Stats
module H = Harness

type shape = {
  graph : unit -> Graph.t;
  log_n : int;
  scale_bits : int option;
  levels : int;
  dnum : int;
  slots : int;
  chips : int;
}

(* Scale primes of 28 bits keep the ~36 rescales of the deep chain
   inside the emulator's scale-drift slack (as in the nn tests).  The
   ring is N=2^9 (256 slots for the 64 used), small enough that a run
   holds about ten inferences. *)
let bert =
  {
    graph = (fun () -> Zoo.bert_encoder ~d_model:16 ~d_ff:32 ~exp_deg:2 ~gelu_deg:2 ~iters:1 ());
    log_n = 9;
    scale_bits = Some 28;
    levels = 38;
    dnum = 4;
    slots = 64;
    chips = 4;
  }

(* Scaled down for the self-test: the same circuit at a smaller width,
   on the same chain. *)
let bert_small =
  { bert with graph = (fun () -> Zoo.bert_encoder ~d_model:8 ~d_ff:16 ~exp_deg:2 ~gelu_deg:2 ~iters:1 ()) }

(* The decrypt tolerance of the nn tests. *)
let tolerance = 5e-2

type setup = {
  params : Params.t;
  graph : Graph.t;
  plan : Plan.t;
  prog : Ct_ir.t;
  poly : Poly_ir.t;
  ks_report : Keyswitch_pass.report;
  keys : F.keyset;
  binding : Binding.t;
  plaintexts : (string, Cinnamon_util.Cplx.t array) Hashtbl.t;
  shape : shape;
}

let setup shape ~seed =
  H.span "harness" "setup" @@ fun () ->
  let params =
    H.span "ckks" "params" (fun () ->
        Params.make ?scale_bits:shape.scale_bits ~slots:shape.slots ~log_n:shape.log_n
          ~levels:shape.levels ~dnum:shape.dnum ())
  in
  let graph = shape.graph () in
  let plan = H.span "nn" "plan" (fun () -> Plan.make graph) in
  (* bootstrap-free: the emulator runs bootstraps at kernel granularity only *)
  let prog = H.span "nn" "lower" (fun () -> Lower.lower ~refresh_depth:max_int ~plan graph) in
  let cfg = Compile_config.functional ~chips:shape.chips params in
  let poly = H.span "compiler" "lower_poly" (fun () -> Lower_poly.lower cfg prog) in
  let ks_report = H.span "compiler" "ks_pass" (fun () -> Keyswitch_pass.run cfg poly) in
  let keys =
    H.span "ckks" "keygen" (fun () ->
        F.gen_keys params ~chips:shape.chips ~rotations:(F.rotations_of prog) (Rng.create ~seed))
  in
  let binding, plaintexts =
    H.span "nn" "bind" (fun () ->
        let b = Binding.random ~seed:(seed + 1) graph in
        (b, Binding.plaintexts b graph plan ~slots:shape.slots))
  in
  { params; graph; plan; prog; poly; ks_report; keys; binding; plaintexts; shape }

(* Keyswitches per algorithm, exactly as Functional.run will execute
   them: the pass's annotation per ct node, Seq where it left none; and
   the rescales it runs beside them (explicit Rescale nodes and the one
   inside each MulPlain). *)
type ks_counts = { seq : int; ib : int; oa : int; cifher : int; relin : int; rescale : int }

let ks_counts st =
  let algorithms = F.algorithms_of_poly st.poly in
  Array.fold_left
    (fun c (n : Ct_ir.node) ->
      let keyswitched, relin =
        match n.Ct_ir.op with
        | Ct_ir.Rotate (_, r) -> (r <> 0, false)
        | Ct_ir.Mul _ | Ct_ir.Square _ -> (true, true)
        | Ct_ir.Conjugate _ -> (true, false)
        | _ -> (false, false)
      in
      let c =
        match n.Ct_ir.op with
        | Ct_ir.Rescale _ | Ct_ir.MulPlain _ -> { c with rescale = c.rescale + 1 }
        | _ -> c
      in
      if not keyswitched then c
      else
        let c = if relin then { c with relin = c.relin + 1 } else c in
        match Hashtbl.find_opt algorithms n.Ct_ir.id with
        | None | Some Poly_ir.Seq -> { c with seq = c.seq + 1 }
        | Some Poly_ir.Input_broadcast -> { c with ib = c.ib + 1 }
        | Some Poly_ir.Output_aggregation -> { c with oa = c.oa + 1 }
        | Some Poly_ir.Cifher_broadcast -> { c with cifher = c.cifher + 1 })
    { seq = 0; ib = 0; oa = 0; cifher = 0; relin = 0; rescale = 0 }
    st.prog.Ct_ir.nodes

(* Collectives the emulator must count: one broadcast per IB
   keyswitch, three per CiFHER, two aggregations per OA. *)
let predicted_comm c = (c.ib + (3 * c.cifher), 2 * c.oa)

type outcome = {
  outputs : (string * float array) list;  (** decrypted slot vectors *)
  err : float;  (** max abs error against the reference *)
  comm : KA.comm_counter;
}

(* One inference on input [i]: the timed part is encrypt -> run ->
   decrypt; the reference check runs after the clock stops. *)
let infer st ~seed i =
  let rng = Rng.create ~seed:((seed * 1_000_003) + i) in
  let logical =
    List.map
      (fun (name, dim) -> (name, Array.init dim (fun _ -> 0.4 *. ((2.0 *. Rng.float rng) -. 1.0))))
      (Graph.inputs st.graph)
  in
  let slots = st.shape.slots in
  let t0 = H.now () in
  let env, outputs =
    H.span "harness" "op" @@ fun () ->
    let inputs = Hashtbl.create 4 in
    H.span "ckks" "encrypt" (fun () ->
        List.iter
          (fun (name, x) ->
            let replicated = Array.init slots (fun s -> x.(s mod Array.length x)) in
            Hashtbl.replace inputs name (Encrypt.encrypt_real st.params st.keys.F.pk replicated rng))
          logical);
    let env =
      F.make_env ~params:st.params ~keys:st.keys ~plaintexts:st.plaintexts ~inputs ~poly:st.poly
    in
    let cts = H.span "emulator" "run" (fun () -> F.run env st.prog) in
    let outputs =
      H.span "ckks" "decrypt" (fun () ->
          List.map
            (fun (name, ct) ->
              (name, Array.sub (Encrypt.decrypt_real st.params st.keys.F.sk ct) 0 slots))
            cts)
    in
    (env, outputs)
  in
  let ms = (H.now () -. t0) *. 1000.0 in
  let expected =
    H.span "check" "reference" (fun () -> Binding.reference st.binding st.graph ~slots ~inputs:logical)
  in
  let err =
    List.fold_left
      (fun a (name, got) -> Float.max a (Stats.max_abs_error ~expected:(List.assoc name expected) ~actual:got))
      0.0 outputs
  in
  (ms, { outputs; err; comm = env.F.comm })

(* Per-call times of the keyswitch paths and rescale the emulator
   runs, at the level of [ct]. *)
type ks_times = { ib_us : float; oa_us : float; fused_us : float; oracle_us : float; rescale_us : float }

let ks_probes st (ct : Ciphertext.t) =
  let p = st.params and keys = st.keys in
  let c1 = ct.Ciphertext.c1 in
  let std = keys.F.ek.Keys.relin and rr = keys.F.rr_relin in
  let cnt = KA.new_counter () in
  let chips = keys.F.chips in
  {
    ib_us = H.probe_us (fun () -> KA.run_input_broadcast p std c1 ~chips cnt);
    oa_us = H.probe_us (fun () -> KA.run_output_aggregation p rr c1 ~chips cnt);
    fused_us = H.probe_us (fun () -> Keyswitch_fused.keyswitch p std c1);
    oracle_us = H.probe_us (fun () -> Keyswitch.keyswitch p std c1);
    rescale_us = H.probe_us (fun () -> Eval.rescale ct);
  }

(* Program level of each node's operand: the level its keyswitch or
   rescale runs at (the lower of a product's two operands). *)
let operand_level st =
  let level = Hashtbl.create 256 in
  Array.iter (fun (n : Ct_ir.node) -> Hashtbl.replace level n.Ct_ir.id n.Ct_ir.level) st.prog.Ct_ir.nodes;
  let lv a = Hashtbl.find level a in
  fun (n : Ct_ir.node) ->
    match n.Ct_ir.op with
    | Ct_ir.Rotate (a, _) | Ct_ir.Conjugate a | Ct_ir.Square a | Ct_ir.Rescale a | Ct_ir.MulPlain (a, _) ->
      Some (lv a)
    | Ct_ir.Mul (a, b) -> Some (min (lv a) (lv b))
    | _ -> None

let lowest_level st =
  let lv = operand_level st in
  Array.fold_left
    (fun m n -> match lv n with Some l -> min m l | None -> m)
    st.prog.Ct_ir.top_level st.prog.Ct_ir.nodes

(* Microseconds the probes attribute to one inference: each keyswitch
   through the algorithm the pass chose, one rescale per relinearised
   product, per explicit Rescale and per MulPlain, each costed by [at]
   its operand's program level. *)
let attributed_us st ~at =
  let algorithms = F.algorithms_of_poly st.poly in
  let lv = operand_level st in
  Array.fold_left
    (fun acc (n : Ct_ir.node) ->
      let ks l =
        let t = at l in
        match Hashtbl.find_opt algorithms n.Ct_ir.id with
        | None | Some Poly_ir.Seq -> t.fused_us
        | Some Poly_ir.Input_broadcast -> t.ib_us
        | Some Poly_ir.Output_aggregation -> t.oa_us
        | Some Poly_ir.Cifher_broadcast -> t.oracle_us
      in
      match (n.Ct_ir.op, lv n) with
      | Ct_ir.Rotate (_, r), Some l -> if r <> 0 then acc +. ks l else acc
      | Ct_ir.Conjugate _, Some l -> acc +. ks l
      | (Ct_ir.Mul _ | Ct_ir.Square _), Some l -> acc +. ks l +. (at l).rescale_us
      | (Ct_ir.Rescale _ | Ct_ir.MulPlain _), Some l -> acc +. (at l).rescale_us
      | _ -> acc)
    0.0 st.prog.Ct_ir.nodes

(* Per-call probes at the workload's ring size and top-level limb
   count: the kernels and keyswitch paths the emulator spends its time
   in, each timed in isolation. *)
let probes st =
  let open Cinnamon_rns in
  let p = st.params in
  let n = p.Params.n in
  let rng = Rng.create ~seed:7 in
  let q = Params.basis_at_level p (Params.top_level p) in
  let limbs = Basis.size q in
  let coeff = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Coeff rng in
  let eval = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Eval rng in
  let eval2 = Rns_poly.random ~n ~basis:q ~domain:Rns_poly.Eval rng in
  let limb_bytes = Float.of_int (n * 8) in
  let gbps ~limbs_touched us = Float.of_int limbs_touched *. limb_bytes /. (us *. 1e3) in
  let fwd = H.probe_us (fun () -> Rns_poly.to_eval coeff) in
  let inv = H.probe_us (fun () -> Rns_poly.to_coeff eval) in
  let ext = Basis.size p.Params.p_basis in
  let bconv = H.probe_us (fun () -> Base_conv.convert coeff ~dst:p.Params.p_basis) in
  let mul = H.probe_us (fun () -> Rns_poly.mul eval eval2) in
  H.set "ntt.forward_us" fwd;
  H.set "ntt.forward_gbps" (gbps ~limbs_touched:(2 * limbs) fwd);
  H.set "ntt.inverse_us" inv;
  H.set "ntt.inverse_gbps" (gbps ~limbs_touched:(2 * limbs) inv);
  H.set "base_conv.us" bconv;
  H.set "base_conv.gbps" (gbps ~limbs_touched:(limbs + ext) bconv);
  H.set "rns.mul_us" mul;
  H.set "rns.mul_gbps" (gbps ~limbs_touched:(3 * limbs) mul);
  let keys = st.keys in
  let rot =
    match F.rotations_of st.prog with
    | r :: _ -> r
    | [] -> 1
  in
  let top = Encrypt.encrypt_real p keys.F.pk (Array.make st.shape.slots 0.25) rng in
  let ctx = Eval.context p keys.F.ek in
  let t = ks_probes st top in
  H.set "ks.ib_us" t.ib_us;
  H.set "ks.oa_us" t.oa_us;
  H.set "ks.fused_us" t.fused_us;
  H.set "ks.oracle_us" t.oracle_us;
  H.set "eval.rotate_us" (H.probe_us (fun () -> Eval.rotate ctx top rot));
  H.set "eval.relin_mul_us" (H.probe_us (fun () -> Eval.mul ctx top top));
  H.set "eval.rescale_us" t.rescale_us;
  (* what the emulator's keyswitches and rescales would cost, each at
     the level it runs at: probed again at the lowest level the program
     reaches and interpolated in limb count between the two; the rest
     of its run time is unattributed *)
  let offset = Params.top_level p - st.prog.Ct_ir.top_level in
  let low_level = max 1 (min (Params.top_level p) (lowest_level st + offset)) in
  let low = ks_probes st (Ciphertext.drop_to_level top low_level) in
  let at level =
    let level = max 0 (level + offset) in
    if Params.top_level p = low_level then t
    else
      let w = Float.of_int (level - low_level) /. Float.of_int (Params.top_level p - low_level) in
      let mix a b = a +. (w *. (b -. a)) in
      {
        ib_us = mix low.ib_us t.ib_us;
        oa_us = mix low.oa_us t.oa_us;
        fused_us = mix low.fused_us t.fused_us;
        oracle_us = mix low.oracle_us t.oracle_us;
        rescale_us = mix low.rescale_us t.rescale_us;
      }
  in
  attributed_us st ~at

(* The exact counts that must repeat between runs and across seeds. *)
let count_line st (o : outcome) =
  let c = ks_counts st in
  Printf.sprintf
    "ct_nodes=%d poly_nodes=%d ks_seq=%d ks_ib=%d ks_oa=%d ks_cifher=%d relin=%d rescales=%d \
     broadcasts=%d aggregations=%d limbs_moved=%d batched_sites=%d"
    (Ct_ir.size st.prog) (Poly_ir.size st.poly) c.seq c.ib c.oa c.cifher c.relin c.rescale
    o.comm.KA.n_broadcast
    o.comm.KA.n_aggregate o.comm.KA.limbs_moved
    (st.ks_report.Keyswitch_pass.pattern_a_sites + st.ks_report.Keyswitch_pass.pattern_b_sites)

(* Bit pattern of every decrypted output: equal fingerprints mean
   bit-identical results. *)
let fingerprint (o : outcome) =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (name, xs) ->
               name ^ ":"
               ^ String.concat "," (Array.to_list (Array.map (fun x -> Int64.to_string (Int64.bits_of_float x)) xs)))
             o.outputs)))

(* Set up (median of several), then run inferences for [seconds] from
   two clients, one per core: the host's two cores can differ in speed
   by up to 2x for minutes, so one client's latency depends on where it
   was scheduled while the median over both cores holds steadier.  A traced
   run sets up once with spans and runs one client, alternating
   untraced and traced inferences so tracing overhead is measured
   within one process. *)
let run shape ~seed ~seconds ~trace ~min_ops : H.result =
  let log = H.new_log () in
  let fail = H.fail log in
  H.phase := "setup";
  let setup_s, st = H.traced trace (fun () -> H.repeat_setup ~trace (fun () -> setup shape ~seed)) in
  let c = ks_counts st in
  let pred_bc, pred_agg = predicted_comm c in
  H.phase := "op";
  let results =
    H.closed_loop ~warm_up:1 ~clients:(if trace then 1 else H.domains) ~seconds ~min_ops (fun i ->
        let tr = trace && i mod 2 = 1 in
        let r = try Ok (H.traced tr (fun () -> infer st ~seed i)) with e -> Error (Printexc.to_string e) in
        (i, tr, r))
  in
  let untraced = ref [] and traced = ref [] in
  let first_counts = ref None and fps = ref [] and worst_err = ref 0.0 and last = ref None in
  List.iter
    (fun (warm, (i, tr, r)) ->
      match r with
      | Error e -> fail (Printf.sprintf "inference %d raised %s" i e)
      | Ok (ms, o) ->
        if warm then () else if tr then traced := ms :: !traced else untraced := ms :: !untraced;
        last := Some o;
        fps := fingerprint o :: !fps;
        worst_err := Float.max !worst_err o.err;
        let counts = count_line st o in
        if not (o.err <= tolerance) then
          fail (Printf.sprintf "inference %d: decrypt error %.3e > %.0e" i o.err tolerance)
        else if o.comm.KA.n_broadcast <> pred_bc || o.comm.KA.n_aggregate <> pred_agg then
          fail
            (Printf.sprintf "inference %d: %d broadcasts / %d aggregations, predicted %d / %d" i
               o.comm.KA.n_broadcast o.comm.KA.n_aggregate pred_bc pred_agg)
        else begin
          match !first_counts with
          | None -> first_counts := Some counts
          | Some c0 when c0 <> counts -> fail (Printf.sprintf "inference %d: counts changed: %s" i counts)
          | Some _ -> ()
        end)
    results;
  H.note log
    (Printf.sprintf "max decrypt error %.3e (tolerance %.0e), precision %.2f bits" !worst_err tolerance
       (-.Float.log2 !worst_err));
  if trace then begin
    H.seti "nn.rotations" st.plan.Plan.pl_rotations;
    H.seti "nn.ct_muls" st.plan.Plan.pl_ct_muls;
    H.seti "ir.ct_nodes" (Ct_ir.size st.prog);
    H.seti "ir.poly_nodes" (Poly_ir.size st.poly);
    H.seti "ks_pass.batched_sites"
      (st.ks_report.Keyswitch_pass.pattern_a_sites + st.ks_report.Keyswitch_pass.pattern_b_sites);
    H.seti "emulator.ks_ib" c.ib;
    H.seti "emulator.ks_oa" c.oa;
    H.seti "emulator.ks_seq" c.seq;
    H.set "ckks.precision_bits" (-.Float.log2 !worst_err);
    (match !last with
    | Some o ->
      H.seti "emulator.broadcasts" o.comm.KA.n_broadcast;
      H.seti "emulator.aggregations" o.comm.KA.n_aggregate;
      H.seti "emulator.limbs_moved" o.comm.KA.limbs_moved;
      H.seti "emulator.bytes_moved"
        (o.comm.KA.limbs_moved * Compile_config.limb_bytes (Compile_config.functional st.params))
    | None -> ());
    let attributed_us = probes st in
    let run_ms =
      H.span_total ~phase:"op" "emulator" "run" /. Float.of_int (max 1 (List.length !traced))
    in
    H.set "emulator.unattributed_ms" (run_ms -. (attributed_us /. 1000.0))
  end;
  let counts = Option.value ~default:"" !first_counts and fingerprint = String.concat "," (List.rev !fps) in
  let after = H.setups_after ~trace setup_s (fun () -> setup shape ~seed) in
  {
    H.setup_s = setup_s @ after;
    op_ms = List.rev !untraced;
    traced_ms = List.rev !traced;
    attempted = List.length results;
    failed = Atomic.get log.H.failures;
    counts;
    fingerprint;
    notes = List.rev log.H.notes;
  }
