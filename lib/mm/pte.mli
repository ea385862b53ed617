(** Page-table entries.

    Modelled as a record rather than packed bits; the fields mirror the x86
    bits the paper's code paths read: P, W, U/S, G, D, A, NX, plus the
    software COW marker Linux keeps in the VMA/PTE. *)

type t = {
  pfn : int;  (** physical frame number (4 KiB units) *)
  present : bool;
  writable : bool;
  user : bool;  (** U/S: accessible from ring 3 *)
  global : bool;  (** G: survives CR3 writes *)
  accessed : bool;
  dirty : bool;
  executable : bool;  (** inverse of NX *)
  cow : bool;  (** write-protected copy-on-write page *)
}

(** A present, writable, non-executable user mapping of [pfn]. *)
val user_data : pfn:int -> t

(** Write-protect and mark COW. *)
val make_cow : t -> t

(** Resolve COW: new frame, writable, not COW. *)
val break_cow : t -> new_pfn:int -> t

val mark_dirty : t -> t
val write_protect : t -> t
val clean : t -> t
