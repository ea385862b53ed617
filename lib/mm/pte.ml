type t = {
  pfn : int;
  present : bool;
  writable : bool;
  user : bool;
  global : bool;
  accessed : bool;
  dirty : bool;
  executable : bool;
  cow : bool;
}

let none =
  {
    pfn = 0;
    present = false;
    writable = false;
    user = false;
    global = false;
    accessed = false;
    dirty = false;
    executable = false;
    cow = false;
  }

let user_data ~pfn = { none with pfn; present = true; writable = true; user = true }


let make_cow t = { t with writable = false; cow = true }

let break_cow t ~new_pfn = { t with pfn = new_pfn; writable = true; cow = false; dirty = true }

let mark_dirty t = { t with dirty = true; accessed = true }
let write_protect t = { t with writable = false }
let clean t = { t with dirty = false }
