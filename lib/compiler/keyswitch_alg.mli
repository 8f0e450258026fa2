(** The parallel keyswitching algorithms (paper §4.3.1, Fig. 8) as
    placements of the fused keyswitch ({!Cinnamon_ckks.Keyswitch_fused})
    over real RNS polynomials, with the collectives each placement needs
    counted.

    Input-broadcast and CiFHER-style (3x the collectives) are
    bit-identical to sequential keyswitching; output-aggregation
    (digits = chip partitions) is decrypt-equivalent — all asserted by
    tests. *)

open Cinnamon_rns
open Cinnamon_ckks

type comm_counter = {
  mutable n_broadcast : int;
  mutable n_aggregate : int;
  mutable limbs_moved : int;  (** limb payloads crossing chips *)
}

val new_counter : unit -> comm_counter
val count_broadcast : comm_counter -> limbs:int -> chips:int -> unit
val count_aggregate : comm_counter -> limbs:int -> chips:int -> unit

(** CiFHER-style: broadcast at mod-up and twice at mod-down. *)
val run_cifher :
  Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> comm_counter ->
  Rns_poly.t * Rns_poly.t

(** Cinnamon input-broadcast (Fig. 8b): one broadcast, extension limbs
    duplicated; bit-identical to sequential. *)
val run_input_broadcast :
  Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> comm_counter ->
  Rns_poly.t * Rns_poly.t

(** Switch key whose digits are the round-robin chip partition (legal
    by digit-selection freedom), laid out by
    {!Cinnamon_ckks.Keyswitch_fused.round_robin_digits}: a chip share
    longer than alpha limbs is cut into sub-digits. *)
val gen_round_robin_key :
  Params.t ->
  Keys.secret_key ->
  s_from:Rns_poly.t ->
  chips:int ->
  Cinnamon_util.Rng.t ->
  Keys.switch_key

(** Cinnamon output-aggregation (Fig. 8c): no input communication; two
    aggregations of the mod-downed partials
    ({!Cinnamon_ckks.Keyswitch_fused.keyswitch_partials}).  [rr_swk]
    must come from {!gen_round_robin_key} with the same [chips]. *)
val run_output_aggregation :
  Params.t -> Keys.switch_key -> Rns_poly.t -> chips:int -> comm_counter ->
  Rns_poly.t * Rns_poly.t

type key_material = Standard of Keys.switch_key | Round_robin of Keys.switch_key

(** Dispatch on algorithm; raises on an algorithm/key mismatch. *)
val run :
  Params.t ->
  algorithm:Cinnamon_ir.Poly_ir.ks_algorithm ->
  chips:int ->
  key:key_material ->
  Rns_poly.t ->
  comm_counter ->
  Rns_poly.t * Rns_poly.t
