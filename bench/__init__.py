"""The benchmark of the FPRM flow and its service; see README.md."""
