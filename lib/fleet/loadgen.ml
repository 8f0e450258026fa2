(* Load generation against one serving node: a one-node Fleet with a
   single default tenant.

   Two client models:
   - Open loop: a Trace.generate Poisson trace at a rate derived from
     the measured service time of the request mix — [overload] = offered load as a
     multiple of the node's aggregate service capacity, so
     overload > 1 provokes queueing, shedding and backpressure
     regardless of how fast the simulator happens to be for the
     chosen workloads.
   - Closed loop: [clients] concurrent clients, each issuing its next
     request one think time after its previous request reaches a
     terminal state (via the node's on_terminal hook).

   The mix is calibrated first (Scenario.calibrate): one real run per
   class gives its base service time for rate and deadline scaling and
   pre-warms the compile the serving run will hit. *)

module CC = Cinnamon_compiler.Compile_config
module Error = Cinnamon_util.Error
module Rng = Cinnamon_util.Rng
module Json = Cinnamon_util.Json
module Exec = Cinnamon_exec
module Node = Cinnamon_serve.Node
module Request = Cinnamon_serve.Request
module Response = Cinnamon_serve.Response
module Slo = Cinnamon_serve.Slo

type mode =
  | Open_loop of { overload : float }
  | Closed_loop of { clients : int; think_factor : float }

type config = {
  lg_mode : mode;
  lg_requests : int;
  lg_mix : Scenario.class_spec list;
  lg_seed : int;
  lg_deadline_factor : float; (* deadline = arrival + factor * class service *)
  lg_capacity : Node.capacity;
  lg_compile : CC.t;
  lg_jobs : int; (* real pool workers; 0 = recommended *)
}

let quick =
  {
    lg_mode = Open_loop { overload = 4.0 };
    lg_requests = 80;
    lg_mix = [ { Scenario.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 1.0 } ];
    lg_seed = 42;
    lg_deadline_factor = 3.0;
    lg_capacity =
      { Node.workers = 2; queue_capacity = 12; max_batch = 4; max_attempts = 3; drain_after_s = None };
    lg_compile = CC.paper ();
    lg_jobs = 0;
  }

let default =
  {
    quick with
    lg_requests = 300;
    lg_mix =
      [
        { Scenario.cls_bench = "bootstrap"; cls_system = "cinnamon-4"; cls_weight = 0.7 };
        { Scenario.cls_bench = "resnet"; cls_system = "cinnamon-4"; cls_weight = 0.3 };
      ];
  }

type result = {
  lr_mode : string; (* "open_loop" | "closed_loop" *)
  lr_rate_rps : float; (* offered rate (open loop) or clients/think-derived *)
  lr_base_service : (string * float) list; (* "bench@system" -> calibrated s *)
  lr_report : Slo.report;
}

let mode_name = function Open_loop _ -> "open_loop" | Closed_loop _ -> "closed_loop"

let run cfg =
  if cfg.lg_requests < 1 then Error.fail Error.Invalid_input "Loadgen.run: lg_requests must be >= 1";
  if cfg.lg_mix = [] then Error.fail Error.Invalid_input "Loadgen.run: lg_mix must be non-empty";
  if cfg.lg_deadline_factor <= 0.0 then
    Error.fail Error.Invalid_input "Loadgen.run: lg_deadline_factor must be > 0";
  List.iter
    (fun c ->
      if c.Scenario.cls_weight <= 0.0 || Float.is_nan c.Scenario.cls_weight then
        Error.fail Error.Invalid_input "Loadgen.run: class weights must be > 0")
    cfg.lg_mix;
  (match cfg.lg_mode with
  | Open_loop { overload } ->
    if overload <= 0.0 then Error.fail Error.Invalid_input "Loadgen.run: overload must be > 0"
  | Closed_loop { clients; think_factor } ->
    if clients < 1 then Error.fail Error.Invalid_input "Loadgen.run: clients must be >= 1";
    if think_factor < 0.0 then Error.fail Error.Invalid_input "Loadgen.run: think_factor must be >= 0");
  Scenario.with_pool ~jobs:cfg.lg_jobs @@ fun pool ->
  (* the report counts the calibration compiles too *)
  let stats0 = Exec.Result_cache.stats () in
  let calibrated = Scenario.calibrate ~pool ~compile:cfg.lg_compile cfg.lg_mix in
  let mean_service = Scenario.mean_service calibrated in
  let offered_rate, arrivals, on_terminal =
    match cfg.lg_mode with
    | Open_loop { overload } ->
      (* rate such that offered work = overload x node capacity *)
      let rate = overload *. Float.of_int cfg.lg_capacity.Node.workers /. mean_service in
      let trace =
        {
          Trace.tr_shape = Trace.Poisson { rate_rps = rate };
          tr_requests = cfg.lg_requests;
          tr_seed = cfg.lg_seed;
          tr_deadline_factor = cfg.lg_deadline_factor;
          tr_compile = cfg.lg_compile;
          tr_tenants = 0;
          tr_tenant_skew = 1.0;
        }
      in
      (rate, Trace.generate trace ~classes:calibrated, None)
    | Closed_loop { clients; think_factor } ->
      let rng = Rng.create ~seed:cfg.lg_seed in
      let mk_request ~id ~arrival_s =
        let cls, service_s = Trace.pick_class rng calibrated in
        Request.make ~config:cfg.lg_compile ~priority:(Trace.pick_priority rng)
          ~deadline_s:(arrival_s +. (cfg.lg_deadline_factor *. service_s))
          ~id ~bench:cls.Scenario.cls_bench ~system:cls.Scenario.cls_system ~arrival_s ()
      in
      let think = think_factor *. mean_service in
      let issued = ref 0 in
      let next_id () =
        let id = !issued in
        incr issued;
        id
      in
      let initial =
        List.init (min clients cfg.lg_requests) (fun _ ->
            mk_request ~id:(next_id ()) ~arrival_s:0.0)
      in
      let feedback (resp : Response.t) =
        if !issued >= cfg.lg_requests then []
        else
          [ mk_request ~id:(next_id ()) ~arrival_s:(Response.terminal_s resp +. think) ]
      in
      (* nominal per-client rate, for the report only *)
      let rate = Float.of_int clients /. (mean_service +. think) in
      (rate, initial, Some feedback)
  in
  let fleet =
    {
      Fleet.default_config with
      Fleet.fc_nodes = 1;
      fc_tenancy = Fleet.single_tenant cfg.lg_compile;
    }
  in
  let fr =
    Fleet.run ~pool fleet
      ~make_node:(Scenario.make_node ?on_terminal ~capacity:cfg.lg_capacity)
      ~arrivals ()
  in
  {
    lr_mode = mode_name cfg.lg_mode;
    lr_rate_rps = offered_rate;
    lr_base_service = Scenario.base_service calibrated;
    lr_report = Scenario.report ~since:stats0 fr;
  }

let result_json r =
  Json.Obj
    [
      ("mode", Json.Str r.lr_mode);
      ("offered_rate_rps", Json.Float r.lr_rate_rps);
      ("base_service_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.lr_base_service));
      ("slo", Slo.report_json r.lr_report);
    ]

let print_result r =
  Printf.printf "mode: %s, offered rate %.2f req/s\n" r.lr_mode r.lr_rate_rps;
  List.iter
    (fun (k, v) -> Printf.printf "base service %-28s %.4f s\n" k v)
    r.lr_base_service;
  Slo.print r.lr_report
