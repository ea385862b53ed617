type t = { sockets : int; cores_per_socket : int; smt : int }

type cpu_id = int

type distance = Self | Smt_sibling | Same_socket | Cross_socket

let create ~sockets ~cores_per_socket ~smt =
  if sockets <= 0 || cores_per_socket <= 0 || smt <= 0 then
    invalid_arg "Topology.create: all dimensions must be positive";
  { sockets; cores_per_socket; smt }

let paper_machine = create ~sockets:2 ~cores_per_socket:14 ~smt:2
let flat n = create ~sockets:1 ~cores_per_socket:n ~smt:1

let sockets t = t.sockets
let cores_per_socket t = t.cores_per_socket
let smt t = t.smt

let physical_cores t = t.sockets * t.cores_per_socket
let n_cpus t = physical_cores t * t.smt

let check t cpu =
  if cpu < 0 || cpu >= n_cpus t then
    invalid_arg (Printf.sprintf "Topology: cpu %d out of range [0,%d)" cpu (n_cpus t))

let smt_thread_of t cpu =
  check t cpu;
  cpu / physical_cores t

let physical_core_of t cpu =
  check t cpu;
  cpu mod physical_cores t

let socket_of t cpu = physical_core_of t cpu / t.cores_per_socket

let distance t a b =
  check t a;
  check t b;
  if a = b then Self
  else if physical_core_of t a = physical_core_of t b then Smt_sibling
  else if socket_of t a = socket_of t b then Same_socket
  else Cross_socket

let cpus_of_socket t socket =
  if socket < 0 || socket >= t.sockets then
    invalid_arg (Printf.sprintf "Topology: socket %d out of range" socket);
  List.init t.cores_per_socket (fun core -> (socket * t.cores_per_socket) + core)

let smt_sibling_of t cpu =
  check t cpu;
  if t.smt < 2 then None
  else begin
    let pc = physical_core_of t cpu in
    let thread = smt_thread_of t cpu in
    let sibling_thread = if thread = 0 then 1 else 0 in
    Some ((sibling_thread * physical_cores t) + pc)
  end

(* x2APIC id: pack SMT thread in bit 0, so siblings share a cluster. *)
let apic_id t cpu = (physical_core_of t cpu * t.smt) + smt_thread_of t cpu

let cluster_of t cpu =
  check t cpu;
  apic_id t cpu / 16

let distance_rank = function
  | Self -> 0
  | Smt_sibling -> 1
  | Same_socket -> 2
  | Cross_socket -> 3

let n_distance_ranks = 4

let distance_of_rank = function
  | 0 -> Self
  | 1 -> Smt_sibling
  | 2 -> Same_socket
  | 3 -> Cross_socket
  | r -> invalid_arg (Printf.sprintf "Topology.distance_of_rank: %d" r)

let distance_label = function
  | Self -> "self"
  | Smt_sibling -> "smt-sibling"
  | Same_socket -> "same-socket"
  | Cross_socket -> "cross-socket"
