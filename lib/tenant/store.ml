(* The per-tenant key store: which key epochs exist, which are live,
   and how rotation moves between them — all on the caller's virtual
   clock, so every transition is deterministic and replayable.

   The state space is the lifecycle itself (mitls-fstar's indexed key
   tables: make the illegal states unrepresentable rather than
   checked):

     (absent) --provision--> Active ks
     Active ks --begin_rotation--> Rotating {old = ks; next}
     Rotating  --(old drains)----> Active next        [via tick]
     Active ks --retire----------> Retired

   - An unprovisioned tenant has NO entry: there is no "empty key set"
     value to misuse, and [provision] on an existing entry is a typed
     error, not an overwrite.
   - [Rotating] is the only state holding two key sets; new leases bind
     to the incoming epoch while in-flight work keeps the outgoing one
     alive through its lease count.  Rotation completes (in [tick])
     only when the old epoch's leases drain, so a request admitted
     before the rotation always executes against the epoch it was
     stamped with.
   - [Retired] holds no key material at all — only the last epoch
     number for diagnostics — so code cannot even express "execute
     against a retired tenant's keys".

   Leases are the reader side: [lease] hands out the current epoch's
   key set and counts the epoch busy until [release].  The store never
   hands out a key set without moving a counter, which is what makes
   "rotate under in-flight work" safe by construction. *)

type error =
  | Already_provisioned of Tenant_id.t
  | Unknown_tenant of Tenant_id.t
  | Tenant_retired of Tenant_id.t
  | Rotation_in_progress of Tenant_id.t
  | Stale_epoch of { st_tenant : Tenant_id.t; st_wanted : Epoch.t; st_live : Epoch.t list }

let error_to_string = function
  | Already_provisioned t -> Printf.sprintf "%s already provisioned" (Tenant_id.to_string t)
  | Unknown_tenant t -> Printf.sprintf "%s not provisioned" (Tenant_id.to_string t)
  | Tenant_retired t -> Printf.sprintf "%s retired: keys destroyed" (Tenant_id.to_string t)
  | Rotation_in_progress t ->
    Printf.sprintf "%s is rotating: old epoch still draining" (Tenant_id.to_string t)
  | Stale_epoch { st_tenant; st_wanted; st_live } ->
    Printf.sprintf "%s epoch %s rotated out (live: %s)" (Tenant_id.to_string st_tenant)
      (Epoch.to_string st_wanted)
      (String.concat "," (List.map Epoch.to_string st_live))

type config = {
  sc_profile : Key_set.profile;
  sc_rotations : int list; (* rotation amounts every tenant's set covers *)
  sc_conjugation : bool;
  sc_rotation_period_s : float; (* infinity = keys never rotate *)
}

let default_config profile =
  { sc_profile = profile; sc_rotations = []; sc_conjugation = false; sc_rotation_period_s = infinity }

let key_set_bytes c =
  Key_set.bytes
    (Key_set.make c.sc_profile ~tenant:Tenant_id.default ~epoch:Epoch.zero
       ~rotations:c.sc_rotations ~conjugation:c.sc_conjugation)

type phase =
  | Active of Key_set.t
  | Rotating of { rt_old : Key_set.t; rt_next : Key_set.t; rt_started_s : float }
  | Retired of { rd_last : Epoch.t; rd_at_s : float }

type tenant_state = {
  mutable ts_phase : phase;
  mutable ts_next_rotation_s : float;
  (* in-flight lease count per epoch int; absent = zero *)
  ts_leases : (int, int ref) Hashtbl.t;
}

type t = {
  config : config;
  tenants : (int, tenant_state) Hashtbl.t;
  (* provision order: the deterministic iteration order for [tick] —
     Hashtbl.iter order is not a contract we want runs to depend on *)
  mutable order : Tenant_id.t list; (* reverse provision order *)
  mutable provisioned : int;
  mutable rotations_started : int;
  mutable rotations_completed : int;
}

type event = {
  ev_tenant : Tenant_id.t;
  ev_at_s : float;
  ev_kind : [ `Rotation_started of Epoch.t * Epoch.t | `Rotation_completed of Epoch.t ];
}

let create config =
  if config.sc_rotation_period_s <= 0.0 then
    invalid_arg "Store.create: rotation period must be > 0";
  {
    config;
    tenants = Hashtbl.create 64;
    order = [];
    provisioned = 0;
    rotations_started = 0;
    rotations_completed = 0;
  }

let find t tenant = Hashtbl.find_opt t.tenants (Tenant_id.to_int tenant)

let key_set_of t tenant epoch =
  Key_set.make t.config.sc_profile ~tenant ~epoch ~rotations:t.config.sc_rotations
    ~conjugation:t.config.sc_conjugation

let provision t tenant ~now_s =
  match find t tenant with
  | Some _ -> Error (Already_provisioned tenant)
  | None ->
    let ks = key_set_of t tenant Epoch.zero in
    Hashtbl.replace t.tenants (Tenant_id.to_int tenant)
      {
        ts_phase = Active ks;
        ts_next_rotation_s = now_s +. t.config.sc_rotation_period_s;
        ts_leases = Hashtbl.create 4;
      };
    t.order <- tenant :: t.order;
    t.provisioned <- t.provisioned + 1;
    Ok ks

(* The epochs a tenant can currently execute against. *)
let live_sets st =
  match st.ts_phase with
  | Active ks -> [ ks ]
  | Rotating { rt_old; rt_next; _ } -> [ rt_old; rt_next ]
  | Retired _ -> []

let leases_on st epoch =
  match Hashtbl.find_opt st.ts_leases (Epoch.to_int epoch) with Some r -> !r | None -> 0

let acquire st epoch =
  match Hashtbl.find_opt st.ts_leases (Epoch.to_int epoch) with
  | Some r -> incr r
  | None -> Hashtbl.replace st.ts_leases (Epoch.to_int epoch) (ref 1)

(* Admission-time binding: the key set NEW work runs against — the
   incoming epoch during a rotation — plus a lease keeping it live. *)
let lease t tenant =
  match find t tenant with
  | None -> Error (Unknown_tenant tenant)
  | Some st -> (
    match st.ts_phase with
    | Retired _ -> Error (Tenant_retired tenant)
    | Active ks | Rotating { rt_next = ks; _ } ->
      acquire st (Key_set.epoch ks);
      Ok ks)

let release t tenant epoch =
  match find t tenant with
  | None -> () (* tenant gone: nothing left to keep alive *)
  | Some st -> (
    match Hashtbl.find_opt st.ts_leases (Epoch.to_int epoch) with
    | Some r when !r > 0 -> decr r
    | _ -> invalid_arg "Store.release: no outstanding lease for this epoch")

(* Execution-time lookup for work stamped earlier: valid only while its
   epoch is still live. *)
let key_set_for t tenant epoch =
  match find t tenant with
  | None -> Error (Unknown_tenant tenant)
  | Some st -> (
    match st.ts_phase with
    | Retired _ -> Error (Tenant_retired tenant)
    | _ -> (
      match List.find_opt (fun ks -> Epoch.equal (Key_set.epoch ks) epoch) (live_sets st) with
      | Some ks -> Ok ks
      | None ->
        Error
          (Stale_epoch
             {
               st_tenant = tenant;
               st_wanted = epoch;
               st_live = List.map Key_set.epoch (live_sets st);
             })))

let begin_rotation t tenant ~now_s =
  match find t tenant with
  | None -> Error (Unknown_tenant tenant)
  | Some st -> (
    match st.ts_phase with
    | Retired _ -> Error (Tenant_retired tenant)
    | Rotating _ -> Error (Rotation_in_progress tenant)
    | Active old ->
      let next = key_set_of t tenant (Epoch.next (Key_set.epoch old)) in
      st.ts_phase <- Rotating { rt_old = old; rt_next = next; rt_started_s = now_s };
      st.ts_next_rotation_s <- now_s +. t.config.sc_rotation_period_s;
      t.rotations_started <- t.rotations_started + 1;
      Ok next)

(* Retirement destroys key material; it cannot happen mid-rotation
   (the old epoch is still draining) or under outstanding leases. *)
let retire t tenant ~now_s =
  match find t tenant with
  | None -> Error (Unknown_tenant tenant)
  | Some st -> (
    match st.ts_phase with
    | Retired _ -> Error (Tenant_retired tenant)
    | Rotating _ -> Error (Rotation_in_progress tenant)
    | Active ks ->
      if leases_on st (Key_set.epoch ks) > 0 then Error (Rotation_in_progress tenant)
      else begin
        st.ts_phase <- Retired { rd_last = Key_set.epoch ks; rd_at_s = now_s };
        Ok ()
      end)

(* Advance the lifecycle to [now_s]: start due rotations, complete the
   ones whose old epoch has drained.  Iterates tenants in provision
   order, so fleet runs stay deterministic whatever the hash layout. *)
let tick t ~now_s =
  let events = ref [] in
  List.iter
    (fun tenant ->
      match find t tenant with
      | None -> ()
      | Some st -> (
        (match st.ts_phase with
        | Rotating { rt_old; rt_next; _ } when leases_on st (Key_set.epoch rt_old) = 0 ->
          st.ts_phase <- Active rt_next;
          Hashtbl.remove st.ts_leases (Epoch.to_int (Key_set.epoch rt_old));
          t.rotations_completed <- t.rotations_completed + 1;
          events :=
            {
              ev_tenant = tenant;
              ev_at_s = now_s;
              ev_kind = `Rotation_completed (Key_set.epoch rt_next);
            }
            :: !events
        | _ -> ());
        match st.ts_phase with
        | Active old when st.ts_next_rotation_s <= now_s ->
          (match begin_rotation t tenant ~now_s with
          | Ok next ->
            events :=
              {
                ev_tenant = tenant;
                ev_at_s = now_s;
                ev_kind = `Rotation_started (Key_set.epoch old, Key_set.epoch next);
              }
              :: !events
          | Error _ -> () (* unreachable from Active *))
        | _ -> ()))
    (List.rev t.order);
  List.rev !events

type stats = {
  st_provisioned : int;
  st_rotations_started : int;
  st_rotations_completed : int;
  st_rotating_now : int;
}

let stats t =
  let rotating =
    Hashtbl.fold
      (fun _ st acc -> match st.ts_phase with Rotating _ -> acc + 1 | _ -> acc)
      t.tenants 0
  in
  {
    st_provisioned = t.provisioned;
    st_rotations_started = t.rotations_started;
    st_rotations_completed = t.rotations_completed;
    st_rotating_now = rotating;
  }
