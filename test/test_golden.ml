(* Golden pins for the serving benches: the result JSON of the four
   quick runs CI makes (serve-sim open and closed loop, serve-fleet,
   serve-fleet --tenants) must match the checked-in files under
   test/golden byte for byte.  Every SLO number is computed on the
   virtual clock, so it is deterministic; the compile and cache-hit
   counts are too once the result cache starts empty, in memory only.

   On a mismatch the actual JSON is written next to the test binary
   (_build/default/test/<name>.actual.json) so a deliberate change
   can be reviewed with diff and copied over the golden file. *)

module Exec = Cinnamon_exec
module Json = Cinnamon_util.Json
module Fleet = Cinnamon_fleet
module Loadgen = Cinnamon_fleet.Loadgen

let fresh_cache () =
  Exec.Result_cache.set_dir None;
  Exec.Result_cache.clear_memory ();
  Exec.Result_cache.reset_stats ()

let read_file path =
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  end

let check_golden name json =
  let actual = Json.to_string json ^ "\n" in
  let golden = Filename.concat "golden" (name ^ ".json") in
  if read_file golden <> actual then begin
    let out = name ^ ".actual.json" in
    let oc = open_out_bin out in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "%s: result differs from test/%s (actual written to %s)" name golden
      (Filename.concat (Sys.getcwd ()) out)
  end

let test_serve_open () =
  fresh_cache ();
  let r = Loadgen.run { Loadgen.quick with Loadgen.lg_jobs = 2 } in
  check_golden "serve_loadtest_open_loop" (Loadgen.result_json r)

let test_serve_closed () =
  fresh_cache ();
  (* serve-sim --quick --mode closed: the CLI's default 8 clients, 0.5 think factor *)
  let r =
    Loadgen.run
      {
        Loadgen.quick with
        Loadgen.lg_mode = Loadgen.Closed_loop { clients = 8; think_factor = 0.5 };
        lg_jobs = 2;
      }
  in
  check_golden "serve_loadtest_closed_loop" (Loadgen.result_json r)

let test_fleet () =
  fresh_cache ();
  let r = Fleet.Fleet_bench.run { Fleet.Fleet_bench.quick with Fleet.Fleet_bench.fb_jobs = 2 } in
  check_golden "serve_fleet" (Fleet.Fleet_bench.result_json r)

let test_tenants () =
  fresh_cache ();
  let r = Fleet.Tenant_bench.run { Fleet.Tenant_bench.quick with Fleet.Tenant_bench.tb_jobs = 2 } in
  check_golden "tenant_serving" (Fleet.Tenant_bench.result_json r)

let suite =
  ( "golden",
    [
      Alcotest.test_case "serve-sim quick open loop" `Quick test_serve_open;
      Alcotest.test_case "serve-sim quick closed loop" `Quick test_serve_closed;
      Alcotest.test_case "serve-fleet quick" `Quick test_fleet;
      Alcotest.test_case "serve-fleet quick tenants" `Quick test_tenants;
    ] )
