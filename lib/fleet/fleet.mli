(** The serving driver: one discrete-event loop over the shared
    virtual clock stepping N {!Cinnamon_serve.Engine}s, with a
    {!Router} placing admissions, per-node {!Key_cache}s modeling
    HBM-resident key sets, a tenant key {!Cinnamon_tenant.Store}, and
    an optional {!Autoscaler}.  A single server is a one-node fleet and
    a single-tenant run is one default tenant ({!single_tenant}).

    All decisions (routing, batching, key penalties, scaling) are
    sequential on the virtual clock; only the real compile/simulate
    work fans across the shared pool — results are bit-identical for
    any [--jobs].  Every arrival reaches exactly one terminal
    response: per-node outcomes land in that node's SLO accumulator,
    tenant-store refusals ([Admission.Tenant_unavailable]) in a
    router-level one, and [fr_slo] is their
    {!Cinnamon_serve.Slo.merge}. *)

(** The tenant layer: the fleet owns one {!Cinnamon_tenant.Store}
    (tenants provision lazily on first arrival), stamps every admitted
    request with the epoch its key lease bound, weighs the per-node
    {!Key_cache}s by modeled key-set bytes, and charges cold dispatches
    the HBM load of the bytes streamed in.  [tn_transcipher_s] adds the
    calibrated ingress cost of the [K_transcipher] conversion circuit
    per request. *)
type tenancy = {
  tn_store : Cinnamon_tenant.Store.config;
  tn_key_capacity_bytes : int;  (** per-node HBM key budget, >= 1 *)
  tn_key_load_s_per_gb : float;  (** HBM load penalty per GB streamed in *)
  tn_transcipher_s : float;  (** ingress service per request; 0 = disabled *)
}

(** [single_tenant ?key_slots ?key_load_s compile] is one default
    tenant whose keys never rotate ({!Cinnamon_tenant.Store.default_config}
    at [compile]'s key profile): each node holds [key_slots] (default 1)
    key sets, a cold key set costs [key_load_s] (default 0) seconds to
    load, and there is no transciphering ingress.
    Raises a typed [Invalid_input] error on [key_slots < 1] or a
    negative or nan [key_load_s]. *)
val single_tenant :
  ?key_slots:int -> ?key_load_s:float -> Cinnamon_compiler.Compile_config.t -> tenancy

type config = {
  fc_nodes : int;  (** initial fleet size, >= 1 *)
  fc_policy : Router.policy;
  fc_autoscale : Autoscaler.config option;
  fc_collect_responses : bool;
      (** retain terminal responses (tests only; O(requests) memory) *)
  fc_tenancy : tenancy;
}

(** 4 nodes, least-loaded, no autoscaler, responses not retained, and
    [single_tenant] at the paper configuration: one key slot, no key
    penalty. *)
val default_config : config

(** Per-run tenant accounting, accumulated sequentially on the virtual
    clock (never from pool workers). *)
type tenant_result = {
  tr_store : Cinnamon_tenant.Store.stats;
  tr_key_penalty_s : float;  (** summed modeled HBM key-load seconds *)
  tr_transcipher_s : float;  (** summed transciphering ingress seconds *)
  tr_base_service_s : float;  (** summed batch service seconds, no penalties *)
  tr_key_bytes_loaded : int;  (** HBM key traffic across all nodes ever *)
  tr_cold_start_ms : (int * float) list;
      (** tenant id -> its first completion's latency, ms; sorted by id *)
  tr_events : Cinnamon_tenant.Store.event list;  (** oldest first *)
}

type result = {
  fr_slo : Cinnamon_serve.Slo.t;  (** merged: router + every node ever *)
  fr_makespan_s : float;
  fr_router : (string * int) list;  (** router decision counts *)
  fr_key_hits : int;
  fr_key_misses : int;
  fr_events : Autoscaler.event list;  (** oldest first *)
  fr_nodes_peak : int;
  fr_nodes_final : int;  (** nodes still admitting at the end *)
  fr_responses : Cinnamon_serve.Response.t list;
      (** [] unless [fc_collect_responses] *)
  fr_tenants : tenant_result;
}

(** Dispatched-batch warm-key hit rate; 0 when nothing dispatched. *)
val key_hit_rate : result -> float

(** [run config ~make_node ~arrivals ()] plays the arrival list (and
    every follow-up a node's [on_terminal] hook injects) to completion.
    [make_node id] builds node [id] — initial nodes get ids
    [0 .. fc_nodes-1]; the autoscaler calls it for each scale-up.  A
    node stops admitting at its own [capacity.drain_after_s] or when
    the autoscaler drains it (the newest admitting node); either way
    its admitted work runs to completion.  When no admitting node has
    room, the request is offered to the lowest-id admitting node (node
    0 once none admits), whose queue rejects it with its own typed
    reason ([Queue_full] or [Closed]).  Raises typed [Invalid_input]
    errors on bad counts/penalties and validates the autoscaler config
    up front. *)
val run :
  ?pool:Cinnamon_exec.Pool.t ->
  config ->
  make_node:(int -> Cinnamon_serve.Node.t) ->
  arrivals:Cinnamon_serve.Request.t list ->
  unit ->
  result
