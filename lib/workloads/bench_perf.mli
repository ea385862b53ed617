(** The BENCH_PERF.json format: one row type, one writer, one reader.

    A file is a header ([schema], [mode]) and a flat list of rows. Every
    result family — per-experiment host cost, per-phase latency
    percentiles, bigmachine scaling, the protocol shootout, the
    cross-backend workloads, run totals — is a set of rows told apart by
    [family], identified within it by [key], carrying named numeric
    [values]. A new family is new rows, not a new schema. *)

type row = {
  family : string;  (** e.g. ["experiments"], ["bigmachine"] *)
  key : string;  (** unique within the family, e.g. ["fig10"], ["wl-fig10/paper"] *)
  values : (string * float option) list;  (** [None] is an explicit n/a ([null]) *)
  memoized : bool;
      (** the row executed none of its own cells: its numbers were
          measured under the experiment that owns them *)
}

(** [row family key values], not [memoized] unless said. *)
val row : ?memoized:bool -> string -> string -> (string * float option) list -> row

(** [int n]: the value [n]. *)
val int : int -> float option

(** [value row name] is [name]'s value; [None] when null or absent. *)
val value : row -> string -> float option

(** The whole file. Values are printed in the shortest form that reads
    back to the same float; non-finite values are written as [null]. *)
val to_string : mode:string -> row list -> string

(** Read a file written by {!to_string}. [Error] (with a message naming
    the byte offset or row) for anything else: an unreadable file, text
    that is not complete JSON, a missing or different [schema], or a
    malformed row. *)
val load : string -> (row list, string) result
