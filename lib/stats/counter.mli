(** Named monotonic counters, grouped into a registry so a simulation can
    dump every count it accumulated in one call.

    Counters are plain mutable cells and registries plain hash tables —
    no synchronization.  Every registry is created by (and encapsulated
    in) one simulation component, so a parallel harness that keeps each
    sub-simulation on a single domain never shares one; keep it that
    way rather than reaching for atomics on these hot paths. *)

type t

module Registry : sig
  type counter := t
  type t

  val create : unit -> t

  val counter : t -> string -> counter
  (** The counter registered under [name], creating it at zero on first
      use.  Repeated calls with the same name return the same counter. *)

  val to_list : t -> (string * int) list
  (** All counters, sorted by name.  Every dump path ({!to_list}, {!dump},
      {!pp}) is deterministically ordered so registry output is byte-stable
      across runs regardless of hash-table layout. *)

  val dump : ?prefix:string -> t -> (string * int) list
  (** Like {!to_list} with [prefix] prepended to every name, so several
      registries ("server/", "client/0/", ...) merge into one namespace. *)

  val cells : t -> counter list
  (** Every counter, sorted by name: for a reader that dumps the same
      registry repeatedly and resolves the names once (the telemetry
      sampler). *)

  val length : t -> int
  (** Number of registered counters.  Registries only grow, so a reader
      holding {!cells} can tell from this when to resolve them again. *)

  val find : t -> string -> int
  (** Current value under [name]; 0 if never touched. *)

  val reset : t -> unit

  val pp : Format.formatter -> t -> unit
end

val incr : t -> unit
val add : t -> int -> unit
val value : t -> int
val name : t -> string
