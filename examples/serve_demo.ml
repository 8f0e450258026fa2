(* The encrypted-inference serving layer on one page: offer a burst of
   bootstrap requests to one serving node (a one-node fleet), let the dynamic batcher
   pack compatible requests (same benchmark, system and compile
   config) so one compile serves the whole batch, and read the SLO
   report — latency percentiles, goodput, shed rate — plus the
   compile-amortization evidence from the result cache.

   Run with:  dune exec examples/serve_demo.exe *)

module Loadgen = Cinnamon_fleet.Loadgen
module Slo = Cinnamon_serve.Slo

let () =
  (* Open loop: Poisson arrivals at 4x the node's service capacity —
     deliberately overloaded so queueing, batching and deadline
     shedding all show up in a few seconds of wall clock. *)
  let open_cfg = { Loadgen.quick with Loadgen.lg_requests = 60; lg_jobs = 2 } in
  print_endline "=== open loop (Poisson, 4x overload) ===";
  let r = Loadgen.run open_cfg in
  Loadgen.print_result r;
  let rp = r.Loadgen.lr_report in
  Printf.printf "amortization: %d compiles served %d admitted requests (%d cache hits)\n\n"
    rp.Slo.rp_compiles rp.Slo.rp_admitted rp.Slo.rp_cache_hits;
  assert (rp.Slo.rp_compiles < rp.Slo.rp_admitted);

  (* Closed loop: 6 clients that each wait half a service time between
     a response and their next request — a self-throttling load that
     completes everything it offers. *)
  let closed_cfg =
    {
      open_cfg with
      Loadgen.lg_mode = Loadgen.Closed_loop { clients = 6; think_factor = 0.5 };
      lg_requests = 30;
    }
  in
  print_endline "=== closed loop (6 clients, 0.5x think) ===";
  let r = Loadgen.run closed_cfg in
  Loadgen.print_result r;
  print_endline "OK"
