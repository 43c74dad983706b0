"""Host-time benchmark of the COLAB simulator (see README.md)."""
