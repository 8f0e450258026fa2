(** The harness shared by the serving drivers ({!Loadgen},
    {!Fleet_bench}, {!Tenant_bench}): the workload class mix and its
    calibration, the production node executor, the SLO report of one
    {!Fleet.run}, and the merge of a result section into the
    [BENCH_cinnamon.json] perf artifact. *)

module CC = Cinnamon_compiler.Compile_config

type class_spec = {
  cls_bench : string;  (** benchmark registry name *)
  cls_system : string;  (** system registry name *)
  cls_weight : float;  (** > 0; mix is weight-proportional *)
}

(** The production [Node.execute]: resolve the head request's workload
    and charge the batch one real compile + simulation (all requests
    in a batch share the batcher's compatibility key, so one run
    amortizes over the whole batch). *)
val workload_executor : now_s:float -> Cinnamon_serve.Batcher.batch -> float

(** [make_node ~capacity id] is node ["node<id>"] running
    {!workload_executor}. *)
val make_node :
  ?on_terminal:(Cinnamon_serve.Response.t -> Cinnamon_serve.Request.t list) ->
  capacity:Cinnamon_serve.Node.capacity ->
  int ->
  Cinnamon_serve.Node.t

(** [with_pool ~jobs f] runs [f] on a fresh pool of [jobs] workers (0 =
    recommended count) and shuts it down afterwards. *)
val with_pool : jobs:int -> (Cinnamon_exec.Pool.t -> 'a) -> 'a

(** Run each class once (through the result cache, pre-warming the
    compiles a serving run will hit) and pair it with its measured
    base service seconds.  Raises typed errors on unknown workload
    names. *)
val calibrate :
  pool:Cinnamon_exec.Pool.t -> compile:CC.t -> class_spec list -> (class_spec * float) list

(** Weight-averaged calibrated service seconds of the mix. *)
val mean_service : (class_spec * float) list -> float

(** ["bench\@system"] → calibrated service seconds, in mix order. *)
val base_service : (class_spec * float) list -> (string * float) list

(** The run's SLO report; [compiles] and [cache_hits] count the result
    cache traffic since [since] (a {!Cinnamon_exec.Result_cache.stats}
    snapshot). *)
val report : since:Cinnamon_exec.Result_cache.stats -> Fleet.result -> Cinnamon_serve.Slo.report

(** [merge_section ~file path json] stores [json] at key [path] of the
    JSON object in [file] (nested objects along the path), keeping
    every other key and putting the ["schema"] tag first; a missing or
    unreadable file starts a fresh artifact. *)
val merge_section : file:string -> string list -> Cinnamon_util.Json.t -> unit
