(* Tests for the parallel keyswitching algorithms (paper §4.3.1,
   Fig. 8): functional equivalence with the sequential reference and
   the communication accounting behind §7.4's algorithmic analysis. *)

open Cinnamon_ckks
open Cinnamon_rns
open Cinnamon_compiler
module Rng = Cinnamon_util.Rng
module KA = Keyswitch_alg

let env =
  lazy
    (let params = Lazy.force Params.small in
     let rng = Rng.create ~seed:303 in
     let sk = Keys.gen_secret_key params rng in
     let relin = Keys.gen_relin_key params sk rng in
     let s = Keys.sk_over sk (Params.qp_basis params) in
     let rr4 = KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:4 rng in
     let rr3 = KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips:3 rng in
     (params, sk, relin, rr4, rr3))

let random_input ?(seed = 7) params =
  let rng = Rng.create ~seed in
  Rns_poly.random ~n:params.Params.n ~basis:params.Params.q_basis ~domain:Rns_poly.Eval rng

let pair_equal (a0, a1) (b0, b1) = Rns_poly.equal a0 b0 && Rns_poly.equal a1 b1

let random_at ~seed params ~level =
  Rns_poly.random ~n:params.Params.n
    ~basis:(Params.basis_at_level params level)
    ~domain:Rns_poly.Eval (Rng.create ~seed)

(* Below the top level, one chip count per level, cycling through 1, 2,
   3, 4 and 8. *)
let chips_at_level level = [| 1; 2; 3; 4; 8 |].(level mod 5)

let decrypt_diff params sk (k0a, k1a) (k0b, k1b) =
  let s = Keys.sk_over sk (Rns_poly.basis k0a) in
  let da = Rns_poly.add k0a (Rns_poly.mul k1a s) in
  let db = Rns_poly.add k0b (Rns_poly.mul k1b s) in
  let diff = Rns_poly.sub da db in
  let worst = ref 0.0 in
  for i = 0 to params.Params.n - 1 do
    worst := max !worst (Float.abs (Rns_poly.coeff_float diff i))
  done;
  !worst

(* --- input broadcast ------------------------------------------------------ *)

let test_input_broadcast_bit_exact () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input params in
  let seq = Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run_input_broadcast params relin c ~chips:4 cnt in
  Alcotest.(check bool) "k0 identical" true (Rns_poly.equal (fst seq) (fst par));
  Alcotest.(check bool) "k1 identical" true (Rns_poly.equal (snd seq) (snd par))

let test_input_broadcast_any_chip_count () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:8 params in
  let seq = Keyswitch.keyswitch params relin c in
  List.iter
    (fun chips ->
      let cnt = KA.new_counter () in
      let par = KA.run_input_broadcast params relin c ~chips cnt in
      Alcotest.(check bool) (Printf.sprintf "%d chips" chips) true
        (Rns_poly.equal (fst seq) (fst par) && Rns_poly.equal (snd seq) (snd par)))
    [ 1; 2; 3; 8 ];
  (* the standard-layout keyswitch: bitwise the oracle at every level *)
  for level = 0 to params.Params.levels - 1 do
    let c = random_at ~seed:(200 + level) params ~level in
    let chips = chips_at_level level in
    let cnt = KA.new_counter () in
    Alcotest.(check bool)
      (Printf.sprintf "level %d, %d chips" level chips)
      true
      (pair_equal (Keyswitch.keyswitch params relin c) (KA.run_input_broadcast params relin c ~chips cnt))
  done

let test_input_broadcast_comm () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:9 params in
  let cnt = KA.new_counter () in
  ignore (KA.run_input_broadcast params relin c ~chips:4 cnt);
  Alcotest.(check int) "exactly 1 broadcast" 1 cnt.KA.n_broadcast;
  Alcotest.(check int) "no aggregations" 0 cnt.KA.n_aggregate;
  (* l limbs reach 3 other chips each *)
  Alcotest.(check int) "limbs moved" (Rns_poly.level c * 3) cnt.KA.limbs_moved

(* --- output aggregation ---------------------------------------------------- *)

let test_output_aggregation_equivalent () =
  let params, sk, relin, rr4, _ = Lazy.force env in
  let c = random_input ~seed:10 params in
  let seq = Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run_output_aggregation params rr4 c ~chips:4 cnt in
  (* different digit decomposition => different noise, same plaintext *)
  let err = decrypt_diff params sk seq par in
  Alcotest.(check bool)
    (Printf.sprintf "decrypt-equivalent (err 2^%.1f vs Q 2^238)" (log err /. log 2.0))
    true (err < 1e12)

let test_output_aggregation_comm () =
  let params, _, _, rr4, _ = Lazy.force env in
  let c = random_input ~seed:11 params in
  let cnt = KA.new_counter () in
  ignore (KA.run_output_aggregation params rr4 c ~chips:4 cnt);
  Alcotest.(check int) "exactly 2 aggregations" 2 cnt.KA.n_aggregate;
  Alcotest.(check int) "no broadcasts" 0 cnt.KA.n_broadcast

let test_output_aggregation_odd_chips () =
  let params, sk, relin, _, rr3 = Lazy.force env in
  let c = random_input ~seed:12 params in
  let seq = Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run_output_aggregation params rr3 c ~chips:3 cnt in
  Alcotest.(check bool) "3-chip digits" true (decrypt_diff params sk seq par < 1e12)

(* --- CiFHER --------------------------------------------------------------- *)

let test_cifher_exact_and_3_broadcasts () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:13 params in
  let seq = Keyswitch.keyswitch params relin c in
  let cnt = KA.new_counter () in
  let par = KA.run_cifher params relin c ~chips:4 cnt in
  Alcotest.(check bool) "bit-exact" true (Rns_poly.equal (fst seq) (fst par));
  Alcotest.(check int) "3 broadcasts" 3 cnt.KA.n_broadcast;
  for level = 0 to params.Params.levels - 1 do
    let c = random_at ~seed:(250 + level) params ~level in
    let chips = chips_at_level (level + 2) in
    let cnt = KA.new_counter () in
    Alcotest.(check bool)
      (Printf.sprintf "level %d, %d chips" level chips)
      true
      (pair_equal (Keyswitch.keyswitch params relin c) (KA.run_cifher params relin c ~chips cnt))
  done

(* --- bitwise pins of the fused placements ------------------------------------ *)

(* Output aggregation as first written: each chip extends its
   round-robin share, multiplies by its digit's key, mod-downs its
   partial on its own, and the partials are added.  Valid for
   chips >= dnum, where each chip's share is one digit. *)
let reference_output_aggregation params rr_swk c ~chips =
  let q_l = Rns_poly.basis c in
  let limbs = Basis.size q_l in
  let p_basis = params.Params.p_basis in
  let target = Basis.union q_l p_basis in
  let n = Rns_poly.n c in
  List.init chips (fun chip -> (chip, List.filter (fun i -> i mod chips = chip) (List.init limbs Fun.id)))
  |> List.filter (fun (_, idx) -> idx <> [])
  |> List.fold_left
       (fun (s0, s1) (chip, idx) ->
         let digit = Rns_poly.restrict c (Basis.sub q_l idx) in
         let extended = Keyswitch.extend_digit digit ~target in
         let part (key : Rns_poly.t array) =
           let f = Rns_poly.mul extended (Rns_poly.restrict key.(chip) target) in
           Mod_updown.mod_down f ~target:q_l ~ext:p_basis
         in
         (Rns_poly.add s0 (part rr_swk.Keys.swk_b), Rns_poly.add s1 (part rr_swk.Keys.swk_a)))
       ( Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval,
         Rns_poly.create ~n ~basis:q_l ~domain:Rns_poly.Eval )

let rr_key params sk ~chips seed =
  let s = Keys.sk_over sk (Params.qp_basis params) in
  KA.gen_round_robin_key params sk ~s_from:(Rns_poly.mul s s) ~chips (Rng.create ~seed)

let test_oa_matches_reference_every_level () =
  let params, sk, _, rr4, rr3 = Lazy.force env in
  List.iter
    (fun (chips, rr) ->
      for level = 0 to params.Params.levels do
        let c = random_at ~seed:(300 + level) params ~level in
        let cnt = KA.new_counter () in
        Alcotest.(check bool)
          (Printf.sprintf "OA level %d, %d chips" level chips)
          true
          (pair_equal
             (reference_output_aggregation params rr c ~chips)
             (KA.run_output_aggregation params rr c ~chips cnt))
      done)
    [ (3, rr3); (4, rr4); (8, rr_key params sk ~chips:8 808) ]

let test_oa_pool_bit_identical () =
  let params, _, _, rr4, rr3 = Lazy.force env in
  List.iter
    (fun (chips, rr) ->
      List.iter
        (fun level ->
          let c = random_at ~seed:(400 + level) params ~level in
          let run jobs =
            let pool = Cinnamon_pool.Pool.create ~jobs () in
            Fun.protect
              ~finally:(fun () -> Cinnamon_pool.Pool.shutdown pool)
              (fun () -> Keyswitch_fused.keyswitch_partials ~pool params ~chips rr c)
          in
          Alcotest.(check bool)
            (Printf.sprintf "OA jobs 1 = jobs 2, level %d, %d chips" level chips)
            true
            (pair_equal (run 1) (run 2)))
        [ 0; 4; params.Params.levels ])
    [ (3, rr3); (4, rr4) ]

(* Fewer chips than digits: a chip's share (5 limbs at 2 chips) would
   outgrow P (alpha = 3 primes) as one digit, so it is cut into
   sub-digits; the keyswitch still decrypts like the sequential one and
   still makes exactly two aggregations. *)
let test_oa_fewer_chips_than_digits () =
  let params, sk, relin, _, _ = Lazy.force env in
  let rr2 = rr_key params sk ~chips:2 202 in
  List.iter
    (fun level ->
      let c = random_at ~seed:(500 + level) params ~level in
      let cnt = KA.new_counter () in
      let par = KA.run_output_aggregation params rr2 c ~chips:2 cnt in
      let err = decrypt_diff params sk (Keyswitch.keyswitch params relin c) par in
      Alcotest.(check bool)
        (Printf.sprintf "level %d decrypt-equivalent (err 2^%.1f)" level (log err /. log 2.0))
        true (err < 1e12);
      Alcotest.(check int) "exactly 2 aggregations" 2 cnt.KA.n_aggregate)
    [ 2; 5; params.Params.levels ];
  Alcotest.(check int) "sub-digits in the key" 4 (Array.length rr2.Keys.swk_b)

(* --- dispatcher ------------------------------------------------------------ *)

let test_dispatcher_rejects_mismatch () =
  let params, _, relin, _, _ = Lazy.force env in
  let c = random_input ~seed:14 params in
  let cnt = KA.new_counter () in
  match
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Output_aggregation ~chips:4
      ~key:(KA.Standard relin) c cnt
  with
  | _ -> Alcotest.fail "expected a typed invalid-input error"
  | exception Cinnamon_util.Error.Error e ->
    Alcotest.(check string)
      "typed invalid-input error" "invalid-input: Keyswitch_alg.run: algorithm/key mismatch"
      (Cinnamon_util.Error.to_string e)

let test_dispatcher_routes () =
  let params, _, relin, rr4, _ = Lazy.force env in
  let c = random_input ~seed:15 params in
  let cnt = KA.new_counter () in
  let a = KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Seq ~chips:4 ~key:(KA.Standard relin) c cnt in
  let b =
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Input_broadcast ~chips:4 ~key:(KA.Standard relin) c cnt
  in
  Alcotest.(check bool) "seq = ib" true (Rns_poly.equal (fst a) (fst b));
  let _ =
    KA.run params ~algorithm:Cinnamon_ir.Poly_ir.Output_aggregation ~chips:4 ~key:(KA.Round_robin rr4)
      c cnt
  in
  Alcotest.(check bool) "counter accumulated" true (cnt.KA.n_broadcast >= 1 && cnt.KA.n_aggregate = 2)

(* rotation keyswitching through the parallel algorithms, end to end *)
let test_parallel_rotation_correct () =
  let params, sk, _, _, _ = Lazy.force env in
  let rng = Rng.create ~seed:404 in
  let pk = Keys.gen_public_key params sk rng in
  let swk = Keys.gen_rotation_key params sk ~rot:3 rng in
  let xs = Array.init 64 (fun i -> Float.of_int i /. 100.0) in
  let ct = Encrypt.encrypt_real params pk xs rng in
  let k = Keys.galois_of_rotation ~n:params.Params.n 3 in
  let c0r = Rns_poly.automorphism ct.Ciphertext.c0 ~k in
  let c1r = Rns_poly.automorphism ct.Ciphertext.c1 ~k in
  let cnt = KA.new_counter () in
  let k0, k1 = KA.run_input_broadcast params swk c1r ~chips:4 cnt in
  let rotated =
    Ciphertext.make ~c0:(Rns_poly.add c0r k0) ~c1:k1 ~scale:(Ciphertext.scale ct)
      ~slots:(Ciphertext.slots ct)
  in
  let got = Encrypt.decrypt_real params sk rotated in
  let expect = Array.init 64 (fun i -> xs.((i + 3) mod 64)) in
  Alcotest.(check bool) "parallel rotation decrypts" true
    (Cinnamon_util.Stats.max_abs_error ~expected:expect ~actual:got < 1e-3)

let suite =
  ( "keyswitch-alg",
    [
      Alcotest.test_case "input-broadcast bit-exact" `Quick test_input_broadcast_bit_exact;
      Alcotest.test_case "input-broadcast chip counts" `Slow test_input_broadcast_any_chip_count;
      Alcotest.test_case "input-broadcast comm" `Quick test_input_broadcast_comm;
      Alcotest.test_case "output-agg equivalent" `Quick test_output_aggregation_equivalent;
      Alcotest.test_case "output-agg comm" `Quick test_output_aggregation_comm;
      Alcotest.test_case "output-agg 3 chips" `Quick test_output_aggregation_odd_chips;
      Alcotest.test_case "cifher exact + comm" `Quick test_cifher_exact_and_3_broadcasts;
      Alcotest.test_case "OA = reference, every level" `Quick test_oa_matches_reference_every_level;
      Alcotest.test_case "OA jobs 1 = jobs 2" `Quick test_oa_pool_bit_identical;
      Alcotest.test_case "OA chips < dnum" `Quick test_oa_fewer_chips_than_digits;
      Alcotest.test_case "dispatcher key check" `Quick test_dispatcher_rejects_mismatch;
      Alcotest.test_case "dispatcher routing" `Quick test_dispatcher_routes;
      Alcotest.test_case "parallel rotation e2e" `Quick test_parallel_rotation_correct;
    ] )
