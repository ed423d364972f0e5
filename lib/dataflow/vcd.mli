(** Value-change-dump (VCD) recording of a simulation, viewable in GTKWave
    or any waveform viewer — the ModelSim-style debugging aid for circuits
    built with this library.

    Every channel contributes two signals (its 32-bit data value and a
    [*_v] valid bit) and every node a fire strobe; an [epoch] vector and a
    one-cycle [squash] strobe mark mis-speculation squashes so GTKWave
    timelines line up with the Chrome traces from {!Pv_obs.Trace}. *)

(** Run a simulation to completion under {!Sim.drive} while writing a VCD
    to [path]; returns the outcome.  [cfg.max_cycles] bounds the dump
    size; [cfg.cancel] is honoured ({!Sim.Cancelled} propagates after the
    file is closed). *)
val record : ?cfg:Sim.config -> path:string -> Graph.t -> Memif.t -> Sim.outcome
