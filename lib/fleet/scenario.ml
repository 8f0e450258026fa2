(* The harness every serving driver shares: the workload mix and its
   self-calibration, the production executor behind each node, the SLO
   report of a fleet run, and the merge of a result section into the
   perf artifact.

   Calibration runs each class once through the Result_cache: the
   measured simulated seconds become the class's base service time,
   which the drivers turn into arrival rates and deadlines, so presets
   keep provoking the intended queueing as the simulator's timing
   model evolves, and the compiles the serving run will hit are
   already warm. *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Runner = Cinnamon_workloads.Runner
module Specs = Cinnamon_workloads.Specs
module Node = Cinnamon_serve.Node
module Request = Cinnamon_serve.Request
module Batcher = Cinnamon_serve.Batcher
module Slo = Cinnamon_serve.Slo

type class_spec = { cls_bench : string; cls_system : string; cls_weight : float }

let find_benchmark name =
  match Specs.find_benchmark name with
  | Ok b -> b
  | Error msg -> Error.fail Error.Unknown_name msg

let find_system name =
  match Runner.find_system name with
  | Ok s -> s
  | Error msg -> Error.fail Error.Unknown_name msg

(* All requests in a batch share bench, system and config (the
   batcher's compatibility key), so one compile + simulation serves the
   whole batch: the amortization the serving layer exists to exploit. *)
let workload_executor ~now_s:_ (b : Batcher.batch) =
  match b.Batcher.requests with
  | [] -> 0.0
  | r :: _ ->
    (Runner.run_benchmark ~config:r.Request.req_config (find_system r.Request.req_system)
       (find_benchmark r.Request.req_bench))
      .Runner.br_seconds

let make_node ?on_terminal ~capacity id =
  Node.make ~name:(Printf.sprintf "node%d" id) ?on_terminal ~capacity ~execute:workload_executor
    ()

let with_pool ~jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let calibrate ~pool ~compile mix =
  (* resolve every name up front: a typo fails before any real work *)
  let classes =
    List.map (fun c -> (c, find_benchmark c.cls_bench, find_system c.cls_system)) mix
  in
  Exec.Pool.map pool
    (fun (c, bench, sys) -> (c, (Runner.run_benchmark ~config:compile sys bench).Runner.br_seconds))
    classes

let mean_service calibrated =
  let total = List.fold_left (fun acc (c, _) -> acc +. c.cls_weight) 0.0 calibrated in
  List.fold_left (fun acc (c, s) -> acc +. (c.cls_weight /. total *. s)) 0.0 calibrated

let base_service calibrated =
  List.map (fun (c, s) -> (Printf.sprintf "%s@%s" c.cls_bench c.cls_system, s)) calibrated

let report ~(since : Exec.Result_cache.stats) (fr : Fleet.result) =
  let now = Exec.Result_cache.stats () in
  let open Exec.Result_cache in
  Slo.report fr.Fleet.fr_slo
    ~duration_s:(Float.max fr.Fleet.fr_makespan_s 1e-9)
    ~compiles:(now.misses - since.misses)
    ~cache_hits:(now.hits + now.disk_hits - since.hits - since.disk_hits)

let read_object file =
  if not (Sys.file_exists file) then []
  else
    try
      let ic = open_in_bin file in
      let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
      in
      match Json.of_string s with Ok (Json.Obj kvs) -> kvs | _ -> []
    with _ -> []

(* The newest section goes first at each level; the bench harness owns
   the rest of the schema, so every other key is kept as found. *)
let rec set_path kvs path json =
  match path with
  | [] -> invalid_arg "Scenario.merge_section: empty path"
  | [ k ] -> (k, json) :: List.remove_assoc k kvs
  | k :: rest ->
    let inner = match List.assoc_opt k kvs with Some (Json.Obj inner) -> inner | _ -> [] in
    (k, Json.Obj (set_path inner rest json)) :: List.remove_assoc k kvs

let merge_section ~file path json =
  let merged = set_path (read_object file) path json in
  let schema =
    Option.value (List.assoc_opt "schema" merged) ~default:(Json.Str "cinnamon-bench-v1")
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj (("schema", schema) :: List.remove_assoc "schema" merged)));
  output_char oc '\n';
  close_out oc
