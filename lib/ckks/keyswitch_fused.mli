(** Fused hybrid keyswitching — the streaming, limb-major fast path.

    Bitwise equal to {!Keyswitch.keyswitch} (the retained oracle) for
    every level, digit layout, and [--jobs] count, but streams the
    digit-INTT → base-extension → NTT → key multiply-accumulate
    dataflow through cache-sized scratch tiles: base conversion's
    stage-1 scaling rides the INTT epilogue, digit-resident limbs skip
    their NTT∘INTT round trip, the (b, a) inner product accumulates
    lazily across all dnum digits with one reduction at tile exit, and
    mod-down transforms only the alpha extension limbs.  See DESIGN.md
    ("Fused keyswitch pipeline") for the dataflow and overflow
    bounds. *)

open Cinnamon_rns

(** [keyswitch params swk c]: [c] over a prefix of Q, Eval domain;
    returns (k0, k1) over the same basis.  With [pool], work fans out
    across output limbs in disjoint ranges — bit-identical results for
    any job count. *)
val keyswitch :
  ?pool:Cinnamon_pool.Pool.t ->
  Params.t ->
  Keys.switch_key ->
  Rns_poly.t ->
  Rns_poly.t * Rns_poly.t

(** {2 Round-robin digit layout (output aggregation)} *)

(** The round-robin digits over the full chain, in switch-key order:
    (owning chip, limb indices).  Chip [c] owns the limbs [i] with
    [i mod chips = c], cut into consecutive sub-digits of at most
    alpha limbs so that P dominates every digit product; with
    [chips >= dnum] every chip holds exactly one digit. *)
val round_robin_digits : Params.t -> chips:int -> (int * int list) list

(** [keyswitch_partials params ~chips swk c]: the keyswitch of [c] with
    a switch key laid out by {!round_robin_digits}, where each chip
    mod-downs its own partial product and the partials are summed —
    bitwise that sum.  Q_l products accumulate into one shared
    accumulator; only the alpha P limbs stay per chip, and their
    scaled INTTs are summed over chips before one conversion column,
    one NTT and one epilogue per output limb.  Bit-identical for any
    job count. *)
val keyswitch_partials :
  ?pool:Cinnamon_pool.Pool.t ->
  Params.t ->
  chips:int ->
  Keys.switch_key ->
  Rns_poly.t ->
  Rns_poly.t * Rns_poly.t

(** {2 Shared decomposition (hoisting)}

    Rotating one ciphertext by many amounts re-uses one digit
    decomposition: {!decompose} once, then one {!apply} (or
    {!accumulate} + a single {!mod_down2}) per rotation. *)

type decomposition

(** Decompose and extend [c1] (Eval, over a prefix of Q) once.  The
    extended digits are bitwise those of {!Keyswitch.extend_digit}. *)
val decompose : ?pool:Cinnamon_pool.Pool.t -> Params.t -> Rns_poly.t -> decomposition

(** The extension basis Q_l ∪ P accumulators must live on. *)
val target_basis : decomposition -> Basis.t

(** Inner product of the shared decomposition with [swk] into
    caller-owned Eval accumulators over {!target_basis}, optionally
    reading the digits through a Galois slot permutation ([perm], the
    hoisted automorphism).  Accumulators stay canonical, so calls
    chain across rotations for accumulate-then-single-mod-down
    rotate-and-sum. *)
val accumulate :
  ?pool:Cinnamon_pool.Pool.t ->
  decomposition ->
  Keys.switch_key ->
  ?perm:Ntt.perm ->
  acc0:Rns_poly.t ->
  acc1:Rns_poly.t ->
  unit ->
  unit

(** Fused mod-down of both accumulators by P: Eval over Q_l ∪ P in,
    Eval over Q_l out — bitwise {!Mod_updown.mod_down} on each. *)
val mod_down2 :
  ?pool:Cinnamon_pool.Pool.t ->
  decomposition ->
  Rns_poly.t ->
  Rns_poly.t ->
  Rns_poly.t * Rns_poly.t

(** One full keyswitch from the shared decomposition:
    {!accumulate} into fresh accumulators, then {!mod_down2}. *)
val apply :
  ?pool:Cinnamon_pool.Pool.t ->
  decomposition ->
  Keys.switch_key ->
  ?perm:Ntt.perm ->
  unit ->
  Rns_poly.t * Rns_poly.t
