(** Arrival-trace generation for fleet sweeps: stationary Poisson and
    a diurnal (non-homogeneous Poisson, thinned cosine wave) shape
    that gives the autoscaler load swings to follow.  Mix, priorities
    and deadlines follow the {!Loadgen} conventions. *)

type shape =
  | Poisson of { rate_rps : float }
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }
      (** rate(t) = base + (peak - base)(1 - cos 2πt/T)/2 *)

(** ["poisson"] or ["diurnal"]. *)
val shape_name : shape -> string

type config = {
  tr_shape : shape;
  tr_requests : int;
  tr_seed : int;
  tr_deadline_factor : float;
      (** deadline = arrival + factor x class base service time *)
  tr_compile : Cinnamon_compiler.Compile_config.t;
  tr_tenants : int;
      (** population size; [<= 1] = single default tenant, drawing no
          randomness *)
  tr_tenant_skew : float;
      (** zipf exponent of tenant popularity (0 = uniform) *)
}

(** Raises a typed [Invalid_input] error on non-positive counts,
    rates, factors or periods, or peak < base. *)
val validate : config -> unit

(** One class drawn weight-proportionally from the calibrated mix (one
    [rng] draw). *)
val pick_class :
  Cinnamon_util.Rng.t -> (Scenario.class_spec * float) list -> Scenario.class_spec * float

(** 10/80/10 High/Normal/Low (one [rng] draw). *)
val pick_priority : Cinnamon_util.Rng.t -> Cinnamon_serve.Request.priority

(** [generate cfg ~classes] draws [tr_requests] arrivals from the
    weight-proportional class mix, where [classes] pairs each spec
    with its calibrated base service seconds (see
    {!Scenario.calibrate}).  Deterministic in
    [tr_seed]. *)
val generate :
  config ->
  classes:(Scenario.class_spec * float) list ->
  Cinnamon_serve.Request.t list
