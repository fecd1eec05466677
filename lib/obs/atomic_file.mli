(** Crash-atomic file replacement for the repo's on-disk outputs
    (metrics snapshots, telemetry traces, artifacts).

    [write path f] runs [f] on a fresh channel to [path ^ ".tmp"],
    closes it, then renames it over [path]. A reader polling [path]
    sees either the old file or the complete new one, never an empty
    or partial file, and a process killed mid-write leaves [path]
    untouched. If [f], the close or the rename raises, the temporary
    file is removed and the exception re-raised. There is no fsync:
    this protects against a killed process, not against power loss.
    The channel is opened in binary mode. *)
val write : string -> (out_channel -> unit) -> unit
