(** Plain-text table rendering for the benchmark harness. *)

(** [table ~title ~header rows] prints an aligned table to stdout — or, when
    running inside {!capture}, into the capturing buffer. *)
val table : title:string -> header:string list -> string list list -> unit

(** [capture f] runs [f], collecting everything {!table} and {!bars} would
    have printed into a buffer, and returns it as a string with [f]'s
    result. The redirection
    is domain-local, so experiments captured on different domains cannot
    interleave their output. Nests (and restores the previous sink) on the
    same domain. *)
val capture : (unit -> 'a) -> string * 'a

(** Format a cycle count compactly ("12.3k", "1.20M"). *)
val cycles : float -> string

(** Format a ratio as a speedup ("1.18x"). *)
val speedup : float -> string

(** Format a percentage reduction between a baseline and a value. *)
val reduction : baseline:float -> float -> string

(** Large counts with thousands grouping ("102,400"). *)
val count : int -> string

(** [bars ~title rows] renders labelled horizontal bars scaled to the
    largest value — the textual rendition of the paper's bar figures. *)
val bars : title:string -> (string * float) list -> unit
