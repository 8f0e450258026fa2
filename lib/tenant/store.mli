(** The per-tenant key store: lifecycle state machine on the caller's
    virtual clock.

    {v
    (absent) --provision--> Active --begin_rotation--> Rotating(old,next)
                              |                            |
                              |                       old drains [tick]
                              v                            v
                           Retired <----retire---- Active(next)
    v}

    Invalid states are unrepresentable: an unprovisioned tenant has no
    entry, [Retired] carries no key material, and a key set only leaves
    the store through a lease (admission) or a live-epoch lookup
    (execution), both of which fail with typed errors once the epoch
    rotates out. *)

type error =
  | Already_provisioned of Tenant_id.t
  | Unknown_tenant of Tenant_id.t
  | Tenant_retired of Tenant_id.t
  | Rotation_in_progress of Tenant_id.t
  | Stale_epoch of { st_tenant : Tenant_id.t; st_wanted : Epoch.t; st_live : Epoch.t list }

val error_to_string : error -> string

type config = {
  sc_profile : Key_set.profile;
  sc_rotations : int list;  (** rotation amounts every tenant's set covers *)
  sc_conjugation : bool;
  sc_rotation_period_s : float;  (** infinity = never rotate *)
}

(** No extra rotation keys, no conjugation, no automatic rotation. *)
val default_config : Key_set.profile -> config

(** Bytes of one key set under [config]: every tenant and epoch holds
    the same keys, so this is the size of each. *)
val key_set_bytes : config -> int

type t

type event = {
  ev_tenant : Tenant_id.t;
  ev_at_s : float;
  ev_kind : [ `Rotation_started of Epoch.t * Epoch.t | `Rotation_completed of Epoch.t ];
}

(** Raises [Invalid_argument] on a non-positive rotation period. *)
val create : config -> t

(** First (and only) provisioning of a tenant: epoch zero becomes
    active.  A second call is [Already_provisioned]. *)
val provision : t -> Tenant_id.t -> now_s:float -> (Key_set.t, error) result

(** Admission-time binding: the key set new work runs against — the
    incoming epoch during a rotation — and a lease keeping that epoch
    live until {!release}. *)
val lease : t -> Tenant_id.t -> (Key_set.t, error) result

(** Drop one lease on [(tenant, epoch)].  Raises [Invalid_argument] if
    none is outstanding (a lease accounting bug, not a race). *)
val release : t -> Tenant_id.t -> Epoch.t -> unit

(** Execution-time lookup for work stamped earlier; [Stale_epoch] once
    the epoch has rotated out, [Tenant_retired] after retirement. *)
val key_set_for : t -> Tenant_id.t -> Epoch.t -> (Key_set.t, error) result

(** Start a rotation by hand (tick starts them on schedule).  From
    [Active] only: rotating again while the old epoch drains is
    [Rotation_in_progress]. *)
val begin_rotation : t -> Tenant_id.t -> now_s:float -> (Key_set.t, error) result

(** Destroy the tenant's key material.  Refused mid-rotation and under
    outstanding leases (both [Rotation_in_progress]). *)
val retire : t -> Tenant_id.t -> now_s:float -> (unit, error) result

(** Advance the lifecycle to [now_s]: complete rotations whose old
    epoch drained, then start rotations that came due.  Deterministic:
    tenants are visited in provision order. *)
val tick : t -> now_s:float -> event list

type stats = {
  st_provisioned : int;
  st_rotations_started : int;
  st_rotations_completed : int;
  st_rotating_now : int;
}

val stats : t -> stats
