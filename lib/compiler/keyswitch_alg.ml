(* The parallel keyswitching algorithms (paper §4.3.1, Fig. 8).

   Each algorithm exists in two forms:

   1. A functional form [run_*] over real RNS polynomials: the
      algorithm's placement of the keyswitch's limbs across chips, run
      on the fused engine (Cinnamon_ckks.Keyswitch_fused) as a digit
      layout, with the collectives that placement needs counted.

   2. A limb-IR emitter [emit] (in Lower_limb) that produces the
      per-chip instruction streams the scheduler and simulator consume.

   Communication accounting follows the paper:
     sequential          — no inter-chip traffic (single chip)
     CiFHER broadcast    — broadcast at mod-up and twice at mod-down
     input broadcast     — ONE broadcast (mod-up); extension limbs are
                           duplicated so mod-down needs no traffic
     output aggregation  — digit-per-chip; TWO aggregate+scatter ops at
                           the end, batchable across keyswitches *)

open Cinnamon_rns
open Cinnamon_ckks

type comm_counter = {
  mutable n_broadcast : int;
  mutable n_aggregate : int;
  mutable limbs_moved : int; (* limb-payloads crossing chip boundaries *)
}

let new_counter () = { n_broadcast = 0; n_aggregate = 0; limbs_moved = 0 }

(* Record a broadcast of [limbs] limbs from their owners to all [chips]:
   every limb must reach chips-1 other chips.  On the paper's ring
   interconnect each link carries it once, so the per-link payload is
   counted once per limb per receiving chip. *)
let count_broadcast cnt ~limbs ~chips =
  cnt.n_broadcast <- cnt.n_broadcast + 1;
  cnt.limbs_moved <- cnt.limbs_moved + (limbs * (chips - 1))

let count_aggregate cnt ~limbs ~chips =
  cnt.n_aggregate <- cnt.n_aggregate + 1;
  (* reduce-scatter: each chip sends (chips-1)/chips of its data *)
  cnt.limbs_moved <- cnt.limbs_moved + (limbs * (chips - 1) / chips * chips)

(* --- CiFHER broadcast keyswitching -------------------------------------- *)

(* CiFHER [38] resolves cross-limb dependencies by broadcasting the
   inputs of every base conversion: the input limbs at mod-up and the
   extension limbs of both accumulators at mod-down.  After the
   broadcasts every chip holds what the sequential algorithm reads, so
   the result is the standard-layout keyswitch; only the traffic
   differs. *)
let run_cifher params swk c ~chips cnt =
  count_broadcast cnt ~limbs:(Rns_poly.level c) ~chips;
  let ext = Basis.size params.Params.p_basis in
  count_broadcast cnt ~limbs:ext ~chips;
  count_broadcast cnt ~limbs:ext ~chips;
  Keyswitch_fused.keyswitch params swk c

(* --- Input broadcast keyswitching (paper Fig. 8b) ------------------------ *)

(* One broadcast of the input limbs; every chip then computes the
   extension limbs of every digit locally (duplicated work), so the
   mod-down needs no communication and each chip ends holding exactly
   its modular share of the output limbs.  Output limbs are independent
   in the fused engine, so the union of the chips' shares is the
   standard-layout keyswitch. *)
let run_input_broadcast params swk c ~chips cnt =
  count_broadcast cnt ~limbs:(Rns_poly.level c) ~chips;
  Keyswitch_fused.keyswitch params swk c

(* --- Output aggregation keyswitching (paper Fig. 8c) --------------------- *)

(* The chips' modular limb shares are themselves used as the digits, so
   no input communication is needed.  Each chip mod-ups its share to
   the full basis, multiplies by its digits' evalkeys, mod-downs its
   partial, and the partials are aggregate-scattered.  Requires a
   switch key whose digits are the round-robin chip partition — we
   materialize it by generating a fresh key with that layout, which
   digit-selection freedom makes legitimate (paper: "implementations
   with all possible choices of digits are interchangeable").  A chip
   share longer than alpha limbs (chips < dnum) is cut into sub-digits
   so P still dominates every digit product. *)
let gen_round_robin_key params sk ~s_from ~chips rng =
  let qp = Params.qp_basis params in
  let n = params.Params.n in
  let s_to = Keys.sk_over sk qp in
  let make (_, idx) =
    let a = Rns_poly.random ~n ~basis:qp ~domain:Rns_poly.Eval rng in
    let e = Keys.sample_error params ~basis:qp rng in
    let scal = Keys.gadget_scalars_for params ~digit_indices:idx in
    let key_term = Rns_poly.scalar_mul_per_limb s_from (fun i -> scal.(i)) in
    let b = Rns_poly.add (Rns_poly.add (Rns_poly.neg (Rns_poly.mul a s_to)) e) key_term in
    (b, a)
  in
  let pairs = List.map make (Keyswitch_fused.round_robin_digits params ~chips) in
  {
    Keys.swk_b = Array.of_list (List.map fst pairs);
    Keys.swk_a = Array.of_list (List.map snd pairs);
  }

(* Mod-down happens per chip BEFORE aggregating — mod-down and
   aggregation commute up to rounding noise (paper §4.3.1), and the
   aggregated payload then spans only Q (l limbs, not l+k). *)
let run_output_aggregation params rr_swk c ~chips cnt =
  let limbs = Rns_poly.level c in
  count_aggregate cnt ~limbs ~chips;
  count_aggregate cnt ~limbs ~chips;
  Keyswitch_fused.keyswitch_partials params ~chips rr_swk c

(* --- dispatcher ----------------------------------------------------------- *)

type key_material =
  | Standard of Keys.switch_key
  | Round_robin of Keys.switch_key (* digit = chip partition *)

let run params ~algorithm ~chips ~key c cnt =
  match (algorithm, key) with
  | Cinnamon_ir.Poly_ir.Seq, Standard swk -> Keyswitch_fused.keyswitch params swk c
  | Cinnamon_ir.Poly_ir.Cifher_broadcast, Standard swk -> run_cifher params swk c ~chips cnt
  | Cinnamon_ir.Poly_ir.Input_broadcast, Standard swk -> run_input_broadcast params swk c ~chips cnt
  | Cinnamon_ir.Poly_ir.Output_aggregation, Round_robin swk ->
    run_output_aggregation params swk c ~chips cnt
  | _ ->
    Cinnamon_util.Error.fail Cinnamon_util.Error.Invalid_input
      "Keyswitch_alg.run: algorithm/key mismatch"
