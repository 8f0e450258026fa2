(* Fused hybrid keyswitching — the streaming, limb-major engine.

   Same mathematics as Keyswitch.keyswitch (the retained oracle), but
   the dataflow is reorganized around OUTPUT limbs so every
   intermediate either stays in a cache-sized scratch tile or is never
   materialized at all:

     phase 1 (decompose)   one INTT per input limb, with base
                           conversion's stage-1 q̂^-1 factor fused into
                           the transform's N^-1 epilogue
                           (Ntt.inverse_scaled_into) — the oracle's
                           separate scaling pass disappears.
     phase 2 (extend+MAC)  per output limb k of Q_l ∪ P: for each
                           digit, either reuse the ciphertext's own
                           Eval limb (digit-resident limbs skip the
                           oracle's INTT∘NTT round trip entirely) or
                           produce one base-conversion column and NTT
                           it; then multiply-accumulate against the
                           (b, a) key pair LAZILY across all dnum
                           digits — raw 63-bit products, reduced once
                           at tile exit (Fused_mac).
     phase 3 (mod-down)    only the alpha P-limbs are INTT'd (scaled
                           by the P-basis q̂^-1); each output limb gets
                           one conversion column, one NTT, and a fused
                           (acc - conv)·P^-1 Shoup pass.  The oracle
                           instead INTTs all t limbs of each
                           accumulator and re-NTTs the results.

   A plan is built from a digit layout: each digit is a set of Q_l limb
   indices, the switch-key digit it multiplies, and the chip that owns
   its partial product.  The standard layout is Params.digit_ranges on
   one chip; output aggregation's round-robin layout keeps one partial
   per chip, mod-downed per chip and then summed (DESIGN.md, "Digit
   layouts" and "Merged OA mod-down").

   At Params.small (l=9, alpha=3, dnum=3) the standard layout costs 60
   NTT-sized transforms against the oracle's 87, plus the eliminated
   key restricts, per-digit polynomial allocations, and two-pass
   mul+add inner product.

   Bitwise identity with the oracle holds because every fusion
   preserves canonical end values: NTT∘INTT of a canonical limb is the
   identity; a fused-scale INTT equals INTT followed by a canonical
   scalar multiply; the lazy MAC reduces the same integer sum mod q
   that the oracle's canonical mul/add chain computes; and the
   Eval-domain mod-down commutes with the (linear, exact) NTT.  The
   digit conversion tables are the same memoized Base_conv tables the
   oracle uses, so column arithmetic is literally shared.  DESIGN.md
   ("Fused keyswitch pipeline") carries the overflow-bound arithmetic.

   Parallelism: phases fan out across limbs (never within one limb)
   with disjoint write ranges, so each item's scalar sequence is
   independent of scheduling and results are bit-identical for any
   --jobs count. *)

open Cinnamon_rns
module Pool = Cinnamon_pool.Pool
module Tel = Cinnamon_telemetry.Telemetry

(* --- digit layouts --------------------------------------------------------- *)

type layout = Standard | Round_robin of int (* chips *)

(* The digits of a layout over the full chain, in switch-key order:
   (owning chip, switch-key digit, limb indices). *)
let layout_digits params = function
  | Standard ->
      List.map
        (fun (lo, hi) -> (0, lo / params.Params.alpha, List.init (hi - lo) (( + ) lo)))
        (Params.digit_ranges params)
  | Round_robin chips ->
      (* chip c's share cut into sub-digits of at most alpha limbs, so
         P dominates every digit product; an empty share keeps one
         (empty) key digit *)
      let alpha = params.Params.alpha in
      List.init chips (fun c ->
          let share = List.filter (fun i -> i mod chips = c) (List.init (params.Params.levels + 1) Fun.id) in
          List.init
            (max 1 (Cinnamon_util.Bitops.cdiv (List.length share) alpha))
            (fun s -> (c, List.filteri (fun p _ -> p / alpha = s) share)))
      |> List.concat
      |> List.mapi (fun key (c, d) -> (c, key, d))

let round_robin_digits params ~chips =
  List.map (fun (c, _, d) -> (c, d)) (layout_digits params (Round_robin chips))

(* --- plans ------------------------------------------------------------------ *)

type digit_plan = {
  d_limbs : int array; (* Q_l limb indices of the digit, ascending *)
  d_key : int; (* index into swk_b / swk_a *)
  d_tbl : Base_conv.table; (* digit basis -> complement-of-digit *)
  d_col : int array; (* target limb -> conversion column, -1 = digit-resident *)
}

(* Phase 2 runs one item per Q_l limb (MAC over every digit into the
   shared accumulator) and one per (chip, P limb) (MAC over that chip's
   digits into its own P accumulator).  With one chip the items are
   exactly the limbs of Q_l ∪ P. *)
type plan = {
  pl_n : int;
  pl_q : Basis.t; (* Q_l *)
  pl_target : Basis.t; (* Q_l ∪ P *)
  pl_tq : int; (* limbs of Q_l *)
  pl_t : int; (* limbs of Q_l ∪ P *)
  pl_alpha : int;
  pl_chips : int; (* chips holding a partial product at this level *)
  pl_digits : digit_plan array;
  pl_limb_scale : int array; (* Q_l limb -> its digit's stage-1 q̂^-1 *)
  pl_item_limb : int array; (* phase-2 item -> target limb *)
  pl_item_digits : int array array; (* phase-2 item -> digits it accumulates *)
  pl_key_idx : int array; (* target limb -> limb index in the key's Q_L ∪ P basis *)
  pl_ntt : Ntt.plan array; (* per target limb *)
  pl_down_tbl : Base_conv.table; (* P -> Q_l *)
  pl_down_scale : int array; (* P-basis q̂^-1 per P limb *)
  pl_p_inv : int array; (* P^-1 mod q_k, k over Q_l *)
  pl_p_inv_sh : int array; (* Shoup constants of the above *)
}

(* Plans are pure functions of (n, chain, level, digit layout); one per
   level and layout in practice, cached like the NTT/base-conversion
   tables. *)
let plans : (int * int list * int list * int * int * int * layout, plan) Cinnamon_util.Memo.t =
  Cinnamon_util.Memo.create ~size:64 ()

let build_plan params layout ~q_l =
  let n = params.Params.n in
  let tq = Basis.size q_l in
  let p_basis = params.Params.p_basis in
  let target = Basis.union q_l p_basis in
  let t = Basis.size target in
  let alpha = params.Params.alpha in
  let qp = Params.qp_basis params in
  (* truncate the full-chain digits to Q_l, dropping emptied ones *)
  let live =
    layout_digits params layout
    |> List.filter_map (fun (c, key, d) ->
           match List.filter (fun j -> j < tq) d with [] -> None | d -> Some (c, key, d))
  in
  let digit_plan (_, key, d) =
    let limbs = Array.of_list d in
    let resident k = Array.mem k limbs in
    let complement = Basis.sub target (List.filter (fun k -> not (resident k)) (List.init t Fun.id)) in
    let tbl = Base_conv.table ~src:(Basis.sub q_l d) ~dst:complement in
    let below k = Array.fold_left (fun m j -> if j < k then m + 1 else m) 0 limbs in
    {
      d_limbs = limbs;
      d_key = key;
      d_tbl = tbl;
      d_col = Array.init t (fun k -> if resident k then -1 else k - below k);
    }
  in
  let digits = Array.of_list (List.map digit_plan live) in
  let limb_scale = Array.make tq 0 in
  Array.iter
    (fun dp -> Array.iteri (fun pos j -> limb_scale.(j) <- Base_conv.qhat_inv dp.d_tbl pos) dp.d_limbs)
    digits;
  let owner = Array.of_list (List.map (fun (c, _, _) -> c) live) in
  let all = Array.init (Array.length owner) Fun.id in
  let chip_digits =
    List.sort_uniq compare (Array.to_list owner)
    |> List.map (fun c -> Array.of_list (List.filter (fun d -> owner.(d) = c) (Array.to_list all)))
    |> Array.of_list
  in
  let nchips = Array.length chip_digits in
  let items = tq + (nchips * alpha) in
  let down_tbl = Base_conv.table ~src:p_basis ~dst:q_l in
  let p_inv = Mod_updown.p_inv_scalars ~target:q_l ~ext:p_basis in
  {
    pl_n = n;
    pl_q = q_l;
    pl_target = target;
    pl_tq = tq;
    pl_t = t;
    pl_alpha = alpha;
    pl_chips = nchips;
    pl_digits = digits;
    pl_limb_scale = limb_scale;
    pl_item_limb = Array.init items (fun i -> if i < tq then i else tq + ((i - tq) mod alpha));
    pl_item_digits =
      Array.init items (fun i -> if i < tq then all else chip_digits.((i - tq) / alpha));
    pl_key_idx = Array.init t (fun k -> Basis.index qp (Basis.value target k));
    pl_ntt = Array.init t (fun k -> Ntt.plan ~q:(Basis.value target k) ~n);
    pl_down_tbl = down_tbl;
    pl_down_scale = Array.init alpha (fun j -> Base_conv.qhat_inv down_tbl j);
    pl_p_inv = p_inv;
    pl_p_inv_sh = Array.init tq (fun k -> Modarith.shoup (Basis.modulus q_l k) p_inv.(k));
  }

let plan_for params layout ~q_l =
  let tq = Basis.size q_l in
  if not (Basis.equal q_l (Basis.prefix params.Params.q_basis tq)) then
    invalid_arg "Keyswitch_fused: ciphertext basis is not a prefix of the modulus chain";
  let key =
    ( params.Params.n,
      Basis.to_list params.Params.q_basis,
      Basis.to_list params.Params.p_basis,
      tq,
      params.Params.dnum,
      params.Params.alpha,
      layout )
  in
  Cinnamon_util.Memo.get plans key (fun () -> build_plan params layout ~q_l)

(* Fan [count] independent items across the pool (or run them inline).
   Items only ever write disjoint limb ranges. *)
let run_items pool count f =
  match pool with
  | Some pl when Pool.jobs pl > 1 && count > 1 -> Pool.iter pl f (List.init count Fun.id)
  | _ ->
      for i = 0 to count - 1 do
        f i
      done

(* Lazy dual MAC of one output limb across digits, tiled so the
   accumulator tile stays cache-resident for the whole digit loop.
   Accumulators hold canonical values on entry (zero or a previous
   rotation's partial sum) and on exit.  Between reductions at most
   terms_per_reduction - 1 raw products ride on top of one canonical
   term: q-1 + (B-1)(q-1)^2 <= B(q-1)^2 <= max_int (DESIGN.md). *)
let mac_limb ~q ~perm ~(ext : Limb_buf.t array) ~(kb : Limb_buf.t array)
    ~(ka : Limb_buf.t array) ~acc0 ~acc1 ~n =
  let ndig = Array.length ext in
  let batch = Fused_mac.terms_per_reduction ~q in
  let tile = Scratch.tile_len ~streams:6 ~n () in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + tile) in
    let live = ref 1 in
    for d = 0 to ndig - 1 do
      if !live >= batch then begin
        Fused_mac.reduce2_range ~q ~acc0 ~acc1 ~lo:!lo ~hi;
        live := 1
      end;
      (match perm with
      | None -> Fused_mac.mac2_range ~x:ext.(d) ~b:kb.(d) ~a:ka.(d) ~acc0 ~acc1 ~lo:!lo ~hi
      | Some p ->
          Fused_mac.mac2_perm_range ~perm:p ~x:ext.(d) ~b:kb.(d) ~a:ka.(d) ~acc0 ~acc1 ~lo:!lo
            ~hi);
      incr live
    done;
    Fused_mac.reduce2_range ~q ~acc0 ~acc1 ~lo:!lo ~hi;
    lo := hi
  done

(* Phase 1: INTT every Q_l limb of [c] into [scaled], folding the
   owning digit's q̂^-1 factor into the transform epilogue; returns the
   scaled limbs grouped per digit. *)
let decompose_scaled pool pl c ~(scaled : Limb_buf.t array) =
  run_items pool pl.pl_tq (fun j ->
      Ntt.inverse_scaled_into pl.pl_ntt.(j) ~scale:pl.pl_limb_scale.(j)
        ~src:(Rns_poly.unsafe_limb_view c j) ~dst:scaled.(j));
  Array.map (fun dp -> Array.map (fun j -> scaled.(j)) dp.d_limbs) pl.pl_digits

(* Extended digit [d] at target limb [k]: the input's own Eval limb
   when resident, else one conversion column NTT'd into [dst]. *)
let extend_limb pl c digit_scaled d k dst =
  let dp = pl.pl_digits.(d) in
  let col = dp.d_col.(k) in
  if col < 0 then Rns_poly.unsafe_limb_view c k
  else begin
    Base_conv.accumulate_column_into dp.d_tbl ~scaled:digit_scaled.(d) ~dst ~k:col;
    Ntt.forward_into pl.pl_ntt.(k) ~src:dst ~dst;
    dst
  end

(* Key limbs of target limb [k] for the digits [ds]. *)
let key_views pl (part : Rns_poly.t array) k ds =
  let kk = pl.pl_key_idx.(k) in
  Array.map (fun d -> Rns_poly.unsafe_limb_view part.(pl.pl_digits.(d).d_key) kk) ds

(* dst += x without reduction *)
let add_raw_into ~(x : Limb_buf.t) ~(dst : Limb_buf.t) =
  for i = 0 to Limb_buf.length dst - 1 do
    Limb_buf.unsafe_set dst i (Limb_buf.unsafe_get dst i + Limb_buf.unsafe_get x i)
  done

(* Phase 3: fused mod-down of both accumulators (Eval in, Eval out).
   Each chip's P limbs get their own scaled INTT, summed over chips as
   plain integers.  The conversion column reduces every term mod q_k
   before its multiply, so a column of the sums is bitwise the sum of
   the chips' columns mod q_k; one NTT and one epilogue per output limb
   then give the sum of the chips' mod-downed partials. *)
let mod_down2_plan pool pl (acc0 : Limb_buf.t array) (acc1 : Limb_buf.t array) =
  let n = pl.pl_n in
  let tq = pl.pl_tq and alpha = pl.pl_alpha and chips = pl.pl_chips in
  let out0 = Rns_poly.create ~n ~basis:pl.pl_q ~domain:Rns_poly.Eval in
  let out1 = Rns_poly.create ~n ~basis:pl.pl_q ~domain:Rns_poly.Eval in
  (* sc.(s * alpha + j): scaled P limb j of accumulator s, summed over chips *)
  Scratch.with_bufs ~n ~count:(2 * alpha) (fun sc ->
      run_items pool (2 * alpha) (fun i ->
          let acc = if i < alpha then acc0 else acc1 and j = i mod alpha in
          let intt g dst =
            Ntt.inverse_scaled_into pl.pl_ntt.(tq + j) ~scale:pl.pl_down_scale.(j)
              ~src:acc.(tq + (g * alpha) + j) ~dst
          in
          intt 0 sc.(i);
          Scratch.with_buf ~n (fun x ->
              for g = 1 to chips - 1 do
                intt g x;
                add_raw_into ~x ~dst:sc.(i)
              done));
      let scaled = [| Array.sub sc 0 alpha; Array.sub sc alpha alpha |] in
      run_items pool (2 * tq) (fun i ->
          let s = i / tq and k = i mod tq in
          let acc, out = if s = 0 then (acc0, out0) else (acc1, out1) in
          Scratch.with_buf ~n (fun col ->
              Base_conv.accumulate_column_wide_into pl.pl_down_tbl ~scaled:scaled.(s) ~dst:col ~k;
              Ntt.forward_into pl.pl_ntt.(k) ~src:col ~dst:col;
              Fused_mac.sub_mul_shoup_range
                ~q:(Modarith.q (Basis.modulus pl.pl_q k))
                ~w:pl.pl_p_inv.(k) ~w_sh:pl.pl_p_inv_sh.(k) ~x:acc.(k) ~y:col
                ~dst:(Rns_poly.unsafe_limb_view out k)
                ~lo:0 ~hi:n)));
  (out0, out1)

let check_input name pl c =
  if Rns_poly.domain c <> Rns_poly.Eval then invalid_arg (name ^ ": Eval-domain input required");
  if Rns_poly.n c <> pl.pl_n then invalid_arg (name ^ ": ring dimension mismatch")

(* The whole pipeline on one layout: decompose, then per phase-2 item
   extend its digits (resident limbs in place, others one column + NTT)
   and MAC them, then the fused mod-down. *)
let run_layout name ?pool params layout (swk : Keys.switch_key) c =
  let pl = plan_for params layout ~q_l:(Rns_poly.basis c) in
  check_input name pl c;
  let n = pl.pl_n in
  Tel.Span.with_ ~cat:"ks_fused" name (fun () ->
      (* one accumulator limb per phase-2 item *)
      let acc0 = Array.map (fun _ -> Limb_buf.create n) pl.pl_item_limb in
      let acc1 = Array.map (fun _ -> Limb_buf.create n) pl.pl_item_limb in
      Scratch.with_bufs ~n ~count:pl.pl_tq (fun scaled ->
          let digit_scaled =
            Tel.Span.with_ ~cat:"ks_fused" "ks_fused.decompose" (fun () ->
                decompose_scaled pool pl c ~scaled)
          in
          Tel.Span.with_ ~cat:"ks_fused" "ks_fused.extend_mac" (fun () ->
              run_items pool (Array.length pl.pl_item_limb) (fun i ->
                  let k = pl.pl_item_limb.(i) and ds = pl.pl_item_digits.(i) in
                  Scratch.with_bufs ~n ~count:(Array.length ds) (fun cols ->
                      let ext = Array.mapi (fun e d -> extend_limb pl c digit_scaled d k cols.(e)) ds in
                      mac_limb ~q:(Basis.value pl.pl_target k) ~perm:None ~ext
                        ~kb:(key_views pl swk.Keys.swk_b k ds)
                        ~ka:(key_views pl swk.Keys.swk_a k ds)
                        ~acc0:acc0.(i) ~acc1:acc1.(i) ~n))));
      Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () ->
          mod_down2_plan pool pl acc0 acc1))

(* The fused keyswitch: bitwise equal to Keyswitch.keyswitch for every
   level prefix, digit layout, and job count. *)
let keyswitch ?pool params swk c = run_layout "ks_fused.keyswitch" ?pool params Standard swk c

(* Output aggregation's keyswitch on the round-robin layout: bitwise
   the sum over chips of each chip's mod-downed partial product. *)
let keyswitch_partials ?pool params ~chips swk c =
  run_layout "ks_fused.keyswitch_partials" ?pool params (Round_robin chips) swk c

(* --- shared decomposition (hoisting support) -------------------------- *)

(* A decomposition materializes what phase 2 normally streams: the
   extended digits of c1 in Eval domain over Q_l ∪ P, computed once and
   reused by every rotation.  Bitwise equal to the oracle's
   Keyswitch.extend_digit outputs (digit-resident limbs are the
   ciphertext's own Eval limbs; conversion columns share the oracle's
   tables). *)
type decomposition = {
  dec_plan : plan;
  dec_ext : Rns_poly.t array; (* per digit, over Q_l ∪ P, Eval *)
}

let decompose ?pool params c1 =
  let pl = plan_for params Standard ~q_l:(Rns_poly.basis c1) in
  check_input "Keyswitch_fused.decompose" pl c1;
  let n = pl.pl_n in
  let ndig = Array.length pl.pl_digits in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.decompose_shared" (fun () ->
      let ext =
        Array.init ndig (fun _ -> Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval)
      in
      Scratch.with_bufs ~n ~count:pl.pl_tq (fun scaled ->
          let digit_scaled = decompose_scaled pool pl c1 ~scaled in
          run_items pool (ndig * pl.pl_t) (fun i ->
              let d = i / pl.pl_t and k = i mod pl.pl_t in
              let dst = Rns_poly.unsafe_limb_view ext.(d) k in
              let v = extend_limb pl c1 digit_scaled d k dst in
              if v != dst then Limb_buf.blit ~src:v ~dst));
      { dec_plan = pl; dec_ext = ext })

let target_basis dec = dec.dec_plan.pl_target

let check_acc name pl acc =
  if not (Basis.equal (Rns_poly.basis acc) pl.pl_target) || Rns_poly.domain acc <> Rns_poly.Eval
  then invalid_arg (name ^ ": accumulator must be Eval over the decomposition's Q_l ∪ P basis")

(* Inner product of the shared decomposition with [swk], optionally
   reading the extended digits through a Galois slot permutation (the
   hoisted automorphism), accumulated lazily into caller-owned
   Eval-domain accumulators over Q_l ∪ P.  Canonical in, canonical
   out, so calls chain across rotations (rotate-and-sum). *)
let accumulate ?pool dec (swk : Keys.switch_key) ?perm ~acc0 ~acc1 () =
  let pl = dec.dec_plan in
  check_acc "Keyswitch_fused.accumulate" pl acc0;
  check_acc "Keyswitch_fused.accumulate" pl acc1;
  let perm = Option.map Ntt.perm_array perm in
  let all = Array.init (Array.length dec.dec_ext) Fun.id in
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.hoisted_mac" (fun () ->
      run_items pool pl.pl_t (fun k ->
          let ext = Array.map (fun e -> Rns_poly.unsafe_limb_view e k) dec.dec_ext in
          mac_limb ~q:(Basis.value pl.pl_target k) ~perm ~ext
            ~kb:(key_views pl swk.Keys.swk_b k all)
            ~ka:(key_views pl swk.Keys.swk_a k all)
            ~acc0:(Rns_poly.unsafe_limb_view acc0 k)
            ~acc1:(Rns_poly.unsafe_limb_view acc1 k)
            ~n:pl.pl_n))

let mod_down2 ?pool dec acc0 acc1 =
  let pl = dec.dec_plan in
  check_acc "Keyswitch_fused.mod_down2" pl acc0;
  check_acc "Keyswitch_fused.mod_down2" pl acc1;
  Tel.Span.with_ ~cat:"ks_fused" "ks_fused.mod_down" (fun () ->
      let views acc = Array.init pl.pl_t (Rns_poly.unsafe_limb_view acc) in
      mod_down2_plan pool pl (views acc0) (views acc1))

(* One full keyswitch from a shared decomposition. *)
let apply ?pool dec swk ?perm () =
  let pl = dec.dec_plan in
  let n = pl.pl_n in
  let acc0 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
  let acc1 = Rns_poly.create ~n ~basis:pl.pl_target ~domain:Rns_poly.Eval in
  accumulate ?pool dec swk ?perm ~acc0 ~acc1 ();
  mod_down2 ?pool dec acc0 acc1
